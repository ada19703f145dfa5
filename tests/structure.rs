//! The workspace's structural rules as one table. Each row is a design rule
//! that keeps one job in one place (one env parser, one argument parser, one
//! fabric transport, one SUMMA loop, one GEMM signature, one JSON writer,
//! one feasibility rule per arrangement, one case generator, …), with the
//! matcher that finds a breach, where it looks, which paths may hold a hit
//! and why.
//! `every_row_holds` walks `crates/ src/ tests/ examples/` (every `.rs` file
//! but this one, whose planted lines break every row) and names file, line
//! and reason for each hit;
//! `every_check_rejects_its_planted_line_and_accepts_its_clean_one`
//! runs each check's planted violation and clean line through its matcher.
//! `benchmark/` is a frozen workspace of its own and is not walked.

use std::path::Path;
use std::process::Command;

/// One design rule: a name, why it holds, and the checks that enforce it.
struct Row {
    name: &'static str,
    reason: &'static str,
    checks: &'static [Check],
}

/// One check of a row, with a line (or snippet) it must reject and one it
/// must accept.
struct Check {
    rule: Rule,
    matcher: Matcher,
    planted: &'static str,
    clean: &'static str,
}

enum Rule {
    /// No file in `scope` outside `allowed` has a hit. An `allowed` entry
    /// ending in `/` allows the whole directory.
    Forbidden { scope: Scope, allowed: &'static [&'static str] },
    /// `file` has exactly `n` hits.
    Exactly { file: &'static str, n: usize },
    /// No path that `git ls-files` lists is a hit.
    Untracked,
}

enum Scope {
    /// `crates/ src/ tests/ examples/`.
    All,
    /// Library and bin sources: `crates/*/src` and `src`.
    Lib,
    /// One file, or every file under a directory when it ends in `/`.
    Under(&'static str),
}

enum Matcher {
    /// A line that matches is a hit wherever it stands.
    Line(fn(&str) -> bool),
    /// The 1-based lines of a file's text that are hits; the rule reads
    /// context (the block or item a line stands in).
    Text(fn(&str) -> Vec<usize>),
}

impl Matcher {
    fn hits(&self, text: &str) -> Vec<usize> {
        match self {
            Matcher::Line(f) => {
                text.lines().enumerate().filter(|(_, l)| f(l)).map(|(i, _)| i + 1).collect()
            }
            Matcher::Text(f) => f(text),
        }
    }
}

const ROWS: &[Row] = &[
    Row {
        name: "env-knob",
        reason: "every TESSERACT_* knob is parsed once, in RunConfig::from_env, so \
                 configuration stays auditable",
        checks: &[Check {
            rule: Rule::Forbidden { scope: Scope::All, allowed: &["crates/comm/src/runconfig.rs"] },
            matcher: Matcher::Line(|l| l.contains(r#"env::var("TESSERACT_"#)),
            planted: r#"let t = std::env::var("TESSERACT_THREADS");"#,
            clean: "let t = RunConfig::from_env();",
        }],
    },
    Row {
        name: "one-argument-parser",
        reason: "every experiment binary reads its --flag value pairs through bench::cli::Args, \
                 which names the known flags once; the examples stay standalone",
        checks: &[Check {
            rule: Rule::Forbidden {
                scope: Scope::All,
                allowed: &["crates/bench/src/cli.rs", "examples/"],
            },
            matcher: Matcher::Line(|l| l.contains("env::args")),
            planted: "let args: Vec<String> = std::env::args().skip(1).collect();",
            clean: "let args = cli::Args::parse(&[\"--out\"]);",
        }],
    },
    Row {
        name: "unsafe",
        reason: "the only unsafe is the call into (and the body of) the #[target_feature] \
                 intrinsic GEMM kernels",
        checks: &[Check {
            rule: Rule::Forbidden { scope: Scope::All, allowed: &["crates/tensor/src/matmul.rs"] },
            matcher: Matcher::Line(|l| l.contains("unsafe")),
            planted: "let x = unsafe { *p };",
            clean: "let x = *r;",
        }],
    },
    Row {
        name: "busy-wait",
        reason: "a fabric waiter yields its core, then parks; rank threads outnumber cores, so \
                 a spinning waiter holds the core its peer needs (CHANGES.md records the sweep)",
        checks: &[Check {
            rule: Rule::Forbidden { scope: Scope::All, allowed: &[] },
            matcher: Matcher::Line(|l| l.contains("spin_loop")),
            planted: "std::hint::spin_loop();",
            clean: "std::thread::yield_now();",
        }],
    },
    Row {
        name: "one-transport",
        reason: "every transfer, a pipeline send/recv included, is a (group id, seq) rendezvous \
                 waited on by Fabric::wait; a queue or a send/recv of the fabric's own is a \
                 second transport with a second wait path",
        checks: &[
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::Under("crates/comm/src/fabric.rs"),
                    allowed: &[],
                },
                matcher: Matcher::Line(|l| {
                    ["VecDeque", "mpsc", "ChanKey"].iter().any(|p| l.contains(p))
                }),
                planted: "channels: HashMap<ChanKey, Arc<Mutex<VecDeque<Box<dyn Any + Send>>>>>,",
                clean: "slots: Mutex<HashMap<SlotKey, Slot>>,",
            },
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::Under("crates/comm/src/fabric.rs"),
                    allowed: &[],
                },
                matcher: Matcher::Line(|l| has_word(l, "fn send") || has_word(l, "fn recv")),
                planted: "pub fn recv<P: Send + 'static>(&self, chan: ChanKey) -> (f64, P) {",
                clean: "pub fn wait<T: Send + Sync + 'static>(&self, ticket: Ticket) -> (f64, Arc<T>) {",
            },
        ],
    },
    Row {
        name: "one-rounding-site",
        reason: "a wait is rounded to integer nanoseconds once, by comm/src/stats.rs::to_nanos, \
                 so every report field is an exact sum of the per-op ledger",
        checks: &[Check {
            rule: Rule::Forbidden { scope: Scope::All, allowed: &["crates/comm/src/stats.rs"] },
            matcher: Matcher::Line(|l| l.contains("1e9).round()")),
            planted: "let ns = (t * 1e9).round() as u64;",
            clean: "let ns = stats::to_nanos(t);",
        }],
    },
    Row {
        name: "price-list",
        reason: "each tensor op's shape rule, Meter charge and kernel is one provided method of \
                 TensorLike: a backend impl is storage, and a fused launch elsewhere is its op \
                 chain under tesseract_tensor::fused",
        checks: &[
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::Under("crates/tensor/src/tensor.rs"),
                    allowed: &[],
                },
                matcher: Matcher::Text(charge_in_tensor_like_impl),
                planted: "impl TensorLike for DenseTensor {\n    fn f() { assert!(ok); }\n}",
                clean: "impl TensorLike for DenseTensor {\n    fn f() { debug_assert!(ok); }\n}",
            },
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::All,
                    allowed: &[
                        "crates/tensor/src/tensor.rs",
                        "crates/tensor/src/meter.rs",
                        "crates/comm/src/stats.rs",
                    ],
                },
                matcher: Matcher::Line(|l| {
                    [".record(", ".record_gemm(", ".record_fused("].iter().any(|p| l.contains(p))
                        && !l.contains("comm.record(")
                }),
                planted: "m.record_fused(&chain, bytes);",
                clean: "self.comm.record(op, bytes);",
            },
        ],
    },
    Row {
        name: "parameter-path",
        reason: "every parameter set is walked through Module::visit_params; a closure that \
                 hands out a parameter visitor is a second entry point",
        checks: &[Check {
            rule: Rule::Forbidden { scope: Scope::All, allowed: &[] },
            matcher: Matcher::Line(|l| {
                l.contains("FnOnce(&mut dyn FnMut(ParamRef") || l.contains("FnMut(&mut dyn FnMut(")
            }),
            planted: "fn walk(f: impl FnOnce(&mut dyn FnMut(ParamRef<'_>))) {}",
            clean: "fn walk(m: &mut dyn Module<DenseTensor>) {}",
        }],
    },
    Row {
        name: "one-stack",
        reason: "the layer list is built once, by Transformer's constructor; training, \
                 recompute, pipeline stages and serving run that stack (the serial oracle's \
                 SerialTransformerLayer is exempt)",
        checks: &[Check {
            rule: Rule::Forbidden {
                scope: Scope::Lib,
                allowed: &["crates/core/src/layers/transformer.rs"],
            },
            matcher: Matcher::Line(builds_layer),
            planted: "let l = TesseractTransformerLayer::<ShadowTensor>::new(grid, cfg, 0);",
            clean: "let l = SerialTransformerLayer::new(cfg, 0);",
        }],
    },
    Row {
        name: "one-schedule",
        reason: "every pipeline step is hybrid::gpipe_step_module and every recompute is the \
                 stack's own checkpointing: a stage recv outside pipeline.rs is a second GPipe \
                 loop, a tape reset outside core a second checkpoint",
        checks: &[
            Check {
                rule: Rule::Forbidden { scope: Scope::Lib, allowed: &["crates/core/src/"] },
                matcher: Matcher::Line(|l| l.contains(".reset_tape(")),
                planted: "layer.reset_tape();",
                clean: "layer.tape_depth();",
            },
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::Lib,
                    allowed: &["crates/hybrid/src/pipeline.rs"],
                },
                matcher: Matcher::Line(|l| {
                    l.contains(".recv_forward(") || l.contains(".recv_backward(")
                }),
                planted: "let x = stage.recv_forward(ctx);",
                clean: "hybrid::gpipe_step_module(ctx, stage);",
            },
        ],
    },
    Row {
        name: "one-SUMMA",
        reason: "SUMMA is core::mm's one summa_pipeline loop (Algorithm 3; 2-D SUMMA at d = 1, \
                 blocking when TesseractGrid::overlap is false); Solomonik's 2.5-D matmul and \
                 the ViT logits gather are exempt, serving gathers through mm::row_panels, \
                 mm::lane_exchange and mm::lane_sum (a lane's row-parallel terms)",
        checks: &[
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::All,
                    allowed: &["crates/core/src/mm.rs", "crates/baselines/src/solomonik.rs"],
                },
                matcher: Matcher::Line(|l| l.contains(".row.broadcast_shared")),
                planted: "let a = grid.row.broadcast_shared(ctx, t, panel);",
                clean: "let c = mm::tesseract_matmul(grid, ctx, &a, &b);",
            },
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::All,
                    allowed: &["crates/core/src/mm.rs", "crates/train/src/vit.rs"],
                },
                matcher: Matcher::Line(|l| l.contains(".row.all_gather_shared")),
                planted: "let rows = grid.row.all_gather_shared(ctx, x);",
                clean: "let rows = mm::row_panels(grid, ctx, x);",
            },
            Check {
                rule: Rule::Exactly { file: "crates/core/src/mm.rs", n: 1 },
                matcher: Matcher::Line(|l| l.contains(".row.broadcast_shared")),
                planted: "grid.row.broadcast_shared_begin(ctx, t, a)",
                clean: "grid.depth.all_reduce_shared(ctx, c)",
            },
            Check {
                rule: Rule::Exactly { file: "crates/core/src/mm.rs", n: 1 },
                matcher: Matcher::Line(|l| l.contains(".col.broadcast_shared")),
                planted: "grid.col.broadcast_shared_begin(ctx, t, b)",
                clean: "grid.col.reduce_shared(ctx, t, c)",
            },
        ],
    },
    Row {
        name: "one-GEMM-signature",
        reason: "a GEMM is matmul::gemm(orient, a, b) or gemm_on(orient, path, kernel, a, b); \
                 matmul::Orient owns the orientation's shape rule, so a second enum Orient or \
                 pub fn matmul… entry point is a second copy",
        checks: &[
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::All,
                    allowed: &["crates/tensor/src/matmul.rs"],
                },
                matcher: Matcher::Line(|l| has_word(l, "enum Orient")),
                planted: "enum Orient { Nn, Nt, Tn }",
                clean: "enum Orientation { Nn, Nt, Tn }",
            },
            Check {
                rule: Rule::Forbidden {
                    scope: Scope::Under("crates/tensor/src/matmul.rs"),
                    allowed: &[],
                },
                matcher: Matcher::Line(|l| {
                    l.trim_start_matches(' ').starts_with("pub fn matmul")
                        && !l.contains("pub fn matmul_flops(")
                }),
                planted: "pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {",
                clean: "pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {",
            },
        ],
    },
    Row {
        name: "one-JSON-writer",
        reason: "every JSON document is a trace::json::Value serialized by json::write, which \
                 escapes every string and lays the document out; a hand-escaped key is a \
                 second emitter",
        checks: &[Check {
            rule: Rule::Forbidden {
                scope: Scope::Lib,
                allowed: &["crates/tensor/src/trace/json.rs"],
            },
            matcher: Matcher::Text(json_key_outside_test_items),
            planted: r#"let s = format!("{{\"rank\": {r}}}");"#,
            clean: "#[cfg(test)]\nmod tests {\n    const S: &str = \"{\\\"rank\\\": 0}\";\n}",
        }],
    },
    Row {
        name: "one-feasibility-rule",
        reason: "each arrangement states its feasibility once, as a Result method \
                 (GridShape::check, MegatronWorld::check_degree, HybridShape::micro_config), \
                 and only the stack's constructor panics on it: a config-side grid check, a \
                 panicking twin or a second microbatch split in the planner is a second copy",
        checks: &[
            Check {
                rule: Rule::Forbidden { scope: Scope::All, allowed: &[] },
                matcher: Matcher::Line(|l| {
                    ["check_for_grid", "validate_for_grid", "fn validate("]
                        .iter()
                        .any(|p| l.contains(p))
                }),
                planted: "fn validate(&self, cfg: &TransformerConfig);",
                clean: "fn check(&self, cfg: &TransformerConfig) -> Result<(), ShapeError>;",
            },
            Check {
                rule: Rule::Forbidden { scope: Scope::Under("crates/plan/src/"), allowed: &[] },
                matcher: Matcher::Line(|l| l.contains("batch / (")),
                planted: "let micro = TransformerConfig { batch: cfg.batch / (dp * mb), ..cfg };",
                clean: "let micro = shape.micro_config(&cfg, mb)?;",
            },
        ],
    },
    Row {
        name: "serve-lanes-independent",
        reason: "a serving lane is an independent q-rank replica that decides on its own clock; \
                 a world group or a barrier outside the comm crate would bring back the \
                 per-step lockstep every rank paid for",
        checks: &[Check {
            rule: Rule::Forbidden { scope: Scope::Lib, allowed: &["crates/comm/src/"] },
            matcher: Matcher::Line(|l| l.contains("world_group(") || l.contains(".barrier(")),
            planted: "ctx.world_group().barrier(ctx);",
            clean: "let rows = mm::row_panels(grid, ctx, x);",
        }],
    },
    Row {
        name: "comm-names-once",
        reason: "every TensorLike is a Payload by one blanket impl beside the trait, so a \
                 bound names one of them; a RunConfig runs, so there is no second run type \
                 and no constructor that reads the environment without saying so",
        checks: &[
            Check {
                rule: Rule::Forbidden { scope: Scope::All, allowed: &[] },
                matcher: Matcher::Line(|l| {
                    l.contains("TensorLike + Payload") || l.contains("Payload + TensorLike")
                }),
                planted: "impl<T: TensorLike + Payload> TesseractMlp<T> {",
                clean: "impl<T: TensorLike> TesseractMlp<T> {",
            },
            Check {
                rule: Rule::Forbidden { scope: Scope::All, allowed: &[] },
                matcher: Matcher::Line(|l| l.contains("Cluster::a100(")),
                planted: "let out = Cluster::a100(4).run(|ctx| ctx.rank);",
                clean: "let out = RunConfig::from_env(4).run(|ctx| ctx.rank);",
            },
            Check {
                rule: Rule::Forbidden { scope: Scope::All, allowed: &[] },
                matcher: Matcher::Line(|l| has_word(l, "struct Cluster")),
                planted: "pub struct Cluster {",
                clean: "pub struct ClusterSpec {",
            },
        ],
    },
    Row {
        name: "one-case-generator",
        reason: "a property test is a #[test] that loops over its cases and draws every input \
                 from its own seeded Xoshiro256StarStar; a proptest macro or assertion brings \
                 back a second case generator",
        checks: &[Check {
            rule: Rule::Forbidden { scope: Scope::All, allowed: &[] },
            matcher: Matcher::Line(|l| {
                ["proptest!", "prop_assert", "use proptest"].iter().any(|p| l.contains(p))
            }),
            planted: "proptest! {",
            clean: "let mut rng = Xoshiro256StarStar::seed_from_u64(101);",
        }],
    },
    Row {
        name: "one-layer-norm",
        reason: "a layer norm is written once, generic over the World, which only completes \
                 a row's sums; the serving chains share its statistics tail, so a second \
                 copy of the row statistics outside the tensor crate is a second norm",
        checks: &[Check {
            rule: Rule::Forbidden {
                scope: Scope::Lib,
                allowed: &["crates/tensor/", "crates/core/src/layers/layernorm.rs"],
            },
            matcher: Matcher::Line(|l| {
                l.contains(".rsqrt_add(") || l.contains("row_sums_of_squares(")
            }),
            planted: "let inv_std = var.rsqrt_add(self.eps, &mut ctx.meter);",
            clean: "let (s1, s2) = world.complete_row_sums(ctx, s1, s2);",
        }],
    },
    Row {
        name: "trace-artifact",
        reason: "traces are regenerated artifacts (serve_sweep writes them under target/); \
                 none is committed",
        checks: &[Check {
            rule: Rule::Untracked,
            matcher: Matcher::Line(|p| p.starts_with("TRACE_") && p.ends_with(".json")),
            planted: "TRACE_serving.json",
            clean: "BENCH_serving.json",
        }],
    },
];

/// Lines inside an `impl TensorLike for …` block of tensor.rs (from its
/// header to the next line opening with `}`) that charge the Meter or
/// assert outside a `debug_` assert.
fn charge_in_tensor_like_impl(text: &str) -> Vec<usize> {
    let mut inside = false;
    let mut hits = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with("impl TensorLike for ") {
            inside = true;
        }
        if line.starts_with('}') {
            inside = false;
        }
        let asserts = line.match_indices("assert").any(|(at, _)| !line[..at].ends_with('_'));
        if inside && (line.contains("record") || asserts) {
            hits.push(i + 1);
        }
    }
    hits
}

/// `(^|[^A-Za-z_])(Tesseract|Megatron)?TransformerLayer(::<[^>]*>)?::new\(`.
fn builds_layer(line: &str) -> bool {
    line.match_indices("TransformerLayer").any(|(at, name)| {
        let before = &line[..at];
        let before =
            ["Tesseract", "Megatron"].iter().find_map(|p| before.strip_suffix(p)).unwrap_or(before);
        if before.ends_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
            return false;
        }
        let mut after = &line[at + name.len()..];
        if let Some(generics) = after.strip_prefix("::<") {
            match generics.find('>') {
                Some(close) => after = &generics[close + 1..],
                None => return false,
            }
        }
        after.starts_with("::new(")
    })
}

/// `\b{phrase}\b`: `phrase` stands on its own, not inside a longer name.
fn has_word(line: &str, phrase: &str) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(phrase)
        .any(|(at, m)| !line[..at].ends_with(word) && !line[at + m.len()..].starts_with(word))
}

/// Lines outside `#[cfg(test)]` items that hold a hand-escaped JSON key,
/// `\"key\":` or `\"key\" :` (the key holds no quote or space). The line
/// after a column-0 `#[cfg(test)]` is skipped; if it opens a block, so is
/// everything up to the next line opening with `}`.
fn json_key_outside_test_items(text: &str) -> Vec<usize> {
    let (mut pending, mut test) = (false, false);
    let mut hits = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with("#[cfg(test)]") {
            pending = true;
        } else if pending {
            pending = false;
            test = line.ends_with('{');
        } else if test {
            test = !line.starts_with('}');
        } else if has_escaped_json_key(line) {
            hits.push(i + 1);
        }
    }
    hits
}

fn has_escaped_json_key(line: &str) -> bool {
    line.match_indices("\\\"").any(|(at, open)| {
        let key = &line[at + open.len()..];
        let Some(end) = key.find(['"', ' ']) else { return false };
        let rest = &key[end + 1..];
        key[end..].starts_with('"')
            && key[..end].ends_with('\\')
            && rest.strip_prefix(' ').unwrap_or(rest).starts_with(':')
    })
}

fn in_scope(path: &str, scope: &Scope) -> bool {
    match scope {
        Scope::All => true,
        Scope::Lib => {
            path.starts_with("src/")
                || path.strip_prefix("crates/").and_then(|p| p.split('/').nth(1)) == Some("src")
        }
        Scope::Under(prefix) => allowed(path, &[prefix]),
    }
}

fn allowed(path: &str, allowed: &[&str]) -> bool {
    allowed.iter().any(|a| if a.ends_with('/') { path.starts_with(a) } else { path == *a })
}

/// Every `.rs` file under `crates/ src/ tests/ examples/` but this one, as
/// sorted root-relative paths with their text.
fn sources(root: &Path) -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries {
            let path = entry.expect("reading a source directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("walked path lies under the root");
                let rel = rel.to_str().expect("source paths are UTF-8").to_string();
                let text =
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {rel}: {e}"));
                out.push((rel, text));
            }
        }
    }
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(root, &root.join(top), &mut out);
    }
    out.retain(|(rel, _)| rel != "tests/structure.rs");
    out.sort();
    out
}

/// The paths `git ls-files` lists at `root`, or `None` outside a git
/// checkout (nothing is tracked there).
fn tracked(root: &Path) -> Option<Vec<String>> {
    let out = Command::new("git").arg("ls-files").current_dir(root).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).lines().map(String::from).collect())
}

/// Every breach of `check` in `files`, as `file:line: [row] reason` lines.
fn breaches(row: &Row, check: &Check, files: &[(String, String)], root: &Path) -> Vec<String> {
    let tag = format!("[{}] {}", row.name, row.reason);
    let show = |path: &str, text: &str, n: usize| {
        format!("{path}:{n}: {tag}\n    {}", text.lines().nth(n - 1).unwrap_or("").trim())
    };
    match &check.rule {
        Rule::Forbidden { scope, allowed: ok } => files
            .iter()
            .filter(|(path, _)| in_scope(path, scope) && !allowed(path, ok))
            .flat_map(|(path, text)| {
                check.matcher.hits(text).into_iter().map(move |n| show(path, text, n))
            })
            .collect(),
        Rule::Exactly { file, n } => {
            let (_, text) = files
                .iter()
                .find(|(path, _)| path == file)
                .unwrap_or_else(|| panic!("[{}] {file} is missing", row.name));
            let hits = check.matcher.hits(text);
            if hits.len() == *n {
                return Vec::new();
            }
            let mut out = vec![format!("{file}: {} matching lines, not {n}: {tag}", hits.len())];
            out.extend(hits.into_iter().map(|h| show(file, text, h)));
            out
        }
        Rule::Untracked => match tracked(root) {
            Some(paths) => paths
                .iter()
                .filter(|p| !check.matcher.hits(p).is_empty())
                .map(|p| format!("{p}: tracked: {tag}"))
                .collect(),
            None => {
                eprintln!("[{}] not a git checkout: no tracked files to check", row.name);
                Vec::new()
            }
        },
    }
}

#[test]
fn every_row_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = sources(root);
    assert!(files.iter().any(|(p, _)| p == "crates/tensor/src/tensor.rs"), "walked no sources");
    let found: Vec<String> = ROWS
        .iter()
        .flat_map(|row| row.checks.iter().flat_map(|c| breaches(row, c, &files, root)))
        .collect();
    assert!(found.is_empty(), "structural rules broken:\n{}", found.join("\n"));
}

#[test]
fn every_check_rejects_its_planted_line_and_accepts_its_clean_one() {
    for row in ROWS {
        for (i, check) in row.checks.iter().enumerate() {
            let (name, planted, clean) = (row.name, check.planted, check.clean);
            assert!(
                !check.matcher.hits(planted).is_empty(),
                "[{name}] check {i} misses {planted:?}"
            );
            assert!(check.matcher.hits(clean).is_empty(), "[{name}] check {i} rejects {clean:?}");
        }
    }
}
