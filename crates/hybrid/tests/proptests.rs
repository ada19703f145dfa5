//! Property tests for the hybrid rank mapping. Each test loops over its
//! cases and draws every input from its own `Xoshiro256StarStar`, seeded
//! with a constant.

use tesseract_core::GridShape;
use tesseract_hybrid::HybridShape;
use tesseract_tensor::Xoshiro256StarStar;

/// `(dp, pp, q, d)`: `dp` and `pp` in `1..4`, `q` and `d` in `1..3`.
fn draw(rng: &mut Xoshiro256StarStar) -> (usize, usize, usize, usize) {
    (1 + rng.next_usize(3), 1 + rng.next_usize(3), 1 + rng.next_usize(2), 1 + rng.next_usize(2))
}

#[test]
fn hybrid_coords_are_a_bijection() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(501);
    for _ in 0..64 {
        let (dp, pp, q, d) = draw(&mut rng);
        let shape = HybridShape::new(dp, pp, GridShape::new(q, d));
        let mut seen = std::collections::HashSet::new();
        for rank in 0..shape.total() {
            let c = shape.coords_of(rank);
            assert!(c.dp_idx < dp && c.pp_idx < pp && c.tess_offset < q * q * d);
            assert_eq!(shape.rank_of(c), rank);
            assert!(seen.insert((c.dp_idx, c.pp_idx, c.tess_offset)));
        }
    }
}

#[test]
fn dp_groups_partition_each_stage() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(502);
    for _ in 0..64 {
        let (dp, pp, q, d) = draw(&mut rng);
        let shape = HybridShape::new(dp, pp, GridShape::new(q, d));
        for pp_idx in 0..pp {
            let mut covered = std::collections::HashSet::new();
            for off in 0..shape.grid().size() {
                for rank in shape.dp_group_ranks(pp_idx, off) {
                    assert_eq!(shape.coords_of(rank).pp_idx, pp_idx);
                    assert!(covered.insert(rank));
                }
            }
            assert_eq!(covered.len(), dp * shape.grid().size());
        }
    }
}

#[test]
fn module_bases_are_disjoint_and_ordered() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(503);
    for _ in 0..64 {
        let (dp, pp, q, d) = draw(&mut rng);
        let shape = HybridShape::new(dp, pp, GridShape::new(q, d));
        let mut prev_end = 0;
        for dp_idx in 0..dp {
            for pp_idx in 0..pp {
                let base = shape.module_base(dp_idx, pp_idx);
                assert_eq!(base, prev_end);
                prev_end = base + shape.grid().size();
            }
        }
        assert_eq!(prev_end, shape.total());
    }
}
