//! Demonstrates the sampling machinery of Section IV: SIFT keypoints
//! (Fig. 6), k-medoids layout clustering, MST solutions (Fig. 3) and the
//! n-wise covering arrays (Fig. 4).
//!
//! ```sh
//! cargo run --release --example sampling_demo
//! ```

use ldmo::core::sampling::{sample_decompositions, sample_layouts, SamplingConfig};
use ldmo::decomp::covering::{covering_array, is_covering};
use ldmo::decomp::{minimum_spanning_forest, two_color_forest, ConflictGraph};
use ldmo::layout::cells;
use ldmo::layout::classify::{pattern_sets, ClassifyConfig};
use ldmo::layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo::vision::sift::{extract_features, SiftConfig};

fn main() {
    // --- SIFT features (Fig. 6) ------------------------------------------
    let aoi = cells::cell("AOI211_X1").expect("known cell");
    let img = aoi.rasterize_target(4.0);
    let feats = extract_features(&img, &SiftConfig::default());
    println!(
        "SIFT: {} keypoints on AOI211_X1 (112×112 image)",
        feats.len()
    );
    for f in feats.iter().take(5) {
        println!(
            "  keypoint at ({:.0}, {:.0}) scale {:.1} orientation {:.2} rad",
            f.pos.x, f.pos.y, f.scale, f.orientation
        );
    }

    // --- MST over the SP conflict graph (Fig. 3) -------------------------
    let sets = pattern_sets(&aoi, &ClassifyConfig::default());
    println!(
        "\nclassification: SP {:?}  VP {:?}  NP {:?}",
        sets.sp, sets.vp, sets.np
    );
    let graph = ConflictGraph::build(&aoi, &sets.sp, 80.0);
    let forest = minimum_spanning_forest(&graph);
    println!(
        "conflict graph: {} vertices, {} edges -> {} components, MST weight {:.0} nm",
        graph.vertex_count(),
        graph.edge_count(),
        forest.component_count,
        forest.total_weight()
    );
    let colors = two_color_forest(&forest);
    println!("MST two-coloring: {colors:?}");

    // --- n-wise covering arrays (Fig. 4) ----------------------------------
    for (k, t) in [(4usize, 2usize), (7, 3)] {
        let rows = covering_array(k, t);
        assert!(is_covering(&rows, k, t));
        println!(
            "\n{t}-wise covering array over {k} binary factors ({} rows):",
            rows.len()
        );
        for row in &rows {
            println!("  {row:?}");
        }
    }

    // --- end-to-end sampling ----------------------------------------------
    let mut generator = LayoutGenerator::new(GeneratorConfig::default(), 7);
    let pool = generator.generate_dataset(16);
    let cfg = SamplingConfig {
        clusters: 4,
        per_cluster: 2,
        ..SamplingConfig::default()
    };
    let picked = sample_layouts(&pool, &cfg);
    println!(
        "\nlayout sampling: {} of {} layouts selected (k-medoids, {} clusters)",
        picked.len(),
        pool.len(),
        cfg.clusters
    );
    let decomps = sample_decompositions(&pool[picked[0]], &cfg);
    println!(
        "decomposition sampling for layout {}: {} candidates (3-wise)",
        picked[0],
        decomps.len()
    );
}
