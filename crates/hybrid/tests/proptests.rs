//! Property-based tests for the hybrid rank mapping.

use proptest::prelude::*;
use tesseract_core::GridShape;
use tesseract_hybrid::HybridShape;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hybrid_coords_are_a_bijection(dp in 1usize..4, pp in 1usize..4, q in 1usize..3, d in 1usize..3) {
        let shape = HybridShape::new(dp, pp, GridShape::new(q, d));
        let mut seen = std::collections::HashSet::new();
        for rank in 0..shape.total() {
            let c = shape.coords_of(rank);
            prop_assert!(c.dp_idx < dp && c.pp_idx < pp && c.tess_offset < q * q * d);
            prop_assert_eq!(shape.rank_of(c), rank);
            prop_assert!(seen.insert((c.dp_idx, c.pp_idx, c.tess_offset)));
        }
    }

    #[test]
    fn dp_groups_partition_each_stage(dp in 1usize..4, pp in 1usize..4, q in 1usize..3, d in 1usize..3) {
        let shape = HybridShape::new(dp, pp, GridShape::new(q, d));
        for pp_idx in 0..pp {
            let mut covered = std::collections::HashSet::new();
            for off in 0..shape.grid.size() {
                for rank in shape.dp_group_ranks(pp_idx, off) {
                    prop_assert_eq!(shape.coords_of(rank).pp_idx, pp_idx);
                    prop_assert!(covered.insert(rank));
                }
            }
            prop_assert_eq!(covered.len(), dp * shape.grid.size());
        }
    }

    #[test]
    fn module_bases_are_disjoint_and_ordered(dp in 1usize..4, pp in 1usize..4, q in 1usize..3, d in 1usize..3) {
        let shape = HybridShape::new(dp, pp, GridShape::new(q, d));
        let mut prev_end = 0;
        for dp_idx in 0..dp {
            for pp_idx in 0..pp {
                let base = shape.module_base(dp_idx, pp_idx);
                prop_assert_eq!(base, prev_end);
                prev_end = base + shape.grid.size();
            }
        }
        prop_assert_eq!(prev_end, shape.total());
    }
}
