//! The comparison flows of Table I.
//!
//! - [`unified_flow`] — the ICCAD'17 simultaneous framework \[10\]: all
//!   candidates are optimized in parallel rounds and greedily pruned by
//!   intermediate printability. Accurate but expensive: most of its time
//!   goes to decomposition selection (Fig. 1(c)), and pruning on
//!   *intermediate* results is exactly the inaccuracy the paper criticises
//!   (Fig. 1(b): trajectories cross).
//! - [`two_stage_suald`] — "\[16\] + \[6\]": a spacing-uniformity-aware greedy
//!   decomposition followed by an independent ILT run.
//! - [`two_stage_bfs`] — "\[17\] + \[6\]": conflict-graph BFS two-coloring
//!   followed by an independent ILT run.

use crate::score::{printability_score, ScoreWeights};
use crate::select::order_by_score;
use ldmo_decomp::canonical::canonicalize;
use ldmo_decomp::{generate_candidates, greedy_coloring, two_color, ConflictGraph, DecompConfig};
use ldmo_ilt::{IltConfig, IltContext, IltOutcome, IltSession};
use ldmo_layout::classify::ClassifyConfig;
use ldmo_layout::{Layout, MaskAssignment};
use std::time::{Duration, Instant};

/// Outcome of a baseline flow, with the same timing split as the main flow.
#[derive(Debug)]
pub struct BaselineResult {
    /// Flow label as used in Table I.
    pub name: &'static str,
    /// Selected decomposition.
    pub assignment: MaskAssignment,
    /// Final ILT outcome.
    pub outcome: IltOutcome,
    /// Time spent selecting/constructing the decomposition.
    pub decomposition_selection: Duration,
    /// Time spent on the final mask optimization.
    pub mask_optimization: Duration,
}

impl BaselineResult {
    /// Total wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.decomposition_selection + self.mask_optimization
    }
}

/// Configuration of the unified greedy-pruning baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct UnifiedConfig {
    /// Candidate generation.
    pub decomp: DecompConfig,
    /// ILT engine parameters.
    pub ilt: IltConfig,
    /// Eq. 9 weights used for intermediate printability ranking.
    pub weights: ScoreWeights,
    /// Iterations between pruning rounds (matches the paper's 3-iteration
    /// check cadence).
    pub prune_interval: usize,
    /// Cap on the initial candidate set.
    pub max_initial: usize,
}

impl Default for UnifiedConfig {
    fn default() -> Self {
        UnifiedConfig {
            decomp: DecompConfig::default(),
            ilt: IltConfig::default(),
            weights: ScoreWeights::default(),
            prune_interval: 3,
            max_initial: 8,
        }
    }
}

/// The ICCAD'17 unified framework \[10\]: greedy pruning on intermediate
/// mask-optimization results.
///
/// All candidates advance `prune_interval` ILT iterations per round; after
/// each round the worse half (by intermediate Eq. 9 score) is discarded.
/// The survivor finishes its full iteration budget. Time spent optimizing
/// candidates that are later pruned — plus the survivor's shared prefix —
/// is decomposition-selection (DS) time; the survivor's remaining
/// iterations are mask-optimization (MO) time. That DS > MO here is the
/// paper's Fig. 1(c).
pub fn unified_flow(layout: &Layout, cfg: &UnifiedConfig) -> BaselineResult {
    let ds_start = Instant::now();
    let mut candidates = generate_candidates(layout, &cfg.decomp);
    candidates.truncate(cfg.max_initial.max(1));
    // one kernel-bank expansion shared by every candidate session; the
    // candidates step in turn, each on the global pool's lanes
    let ctx = on_global_pool(IltContext::new(&cfg.ilt));
    let mut active: Vec<(MaskAssignment, IltSession)> = candidates
        .into_iter()
        .map(|c| {
            let session = ctx.session(layout, &c);
            (c, session)
        })
        .collect();
    let interval = cfg.prune_interval.max(1);
    while active.len() > 1 {
        let budget = active
            .iter()
            .map(|(_, s)| s.iterations())
            .max()
            .unwrap_or(0)
            + interval;
        let budget = budget.min(cfg.ilt.max_iterations);
        for (_, session) in &mut active {
            while session.iterations() < budget {
                let _ = session.step_one();
            }
        }
        // rank by intermediate printability and drop the worse half; the
        // survivors keep their order, which breaks the next round's ties
        let scores = active
            .iter()
            .map(|(_, s)| printability_score(&s.snapshot(Vec::new(), None), &cfg.weights))
            .collect();
        let mut keep = vec![false; active.len()];
        let survivors = active.len().div_ceil(2);
        for i in order_by_score(scores).into_iter().take(survivors) {
            keep[i] = true;
        }
        let mut keep = keep.into_iter();
        active.retain(|_| keep.next() == Some(true));
        if active
            .iter()
            .all(|(_, s)| s.iterations() >= cfg.ilt.max_iterations)
        {
            // budget exhausted while several remain: keep the best only
            active.truncate(1);
        }
    }
    let ds_time = ds_start.elapsed();
    let (assignment, mut session) = active.pop().expect("at least one candidate");
    let mo_start = Instant::now();
    while session.iterations() < cfg.ilt.max_iterations {
        let _ = session.step_one();
    }
    let outcome = session.into_outcome();
    BaselineResult {
        name: "ICCAD'17 unified [10]",
        assignment,
        outcome,
        decomposition_selection: ds_time,
        mask_optimization: mo_start.elapsed(),
    }
}

/// "\[16\] + \[6\]": spacing-uniformity-aware greedy decomposition (SUALD-style)
/// followed by one independent ILT run.
///
/// Patterns are assigned one by one (densest neighbourhood first) to the
/// mask that maximizes the minimum same-mask spacing — the spacing
/// uniformity objective of SUALD reduced to double patterning.
pub fn two_stage_suald(layout: &Layout, ilt_cfg: &IltConfig) -> BaselineResult {
    let ds_start = Instant::now();
    let assignment = suald_decompose(layout);
    let ds_time = ds_start.elapsed();
    let mo_start = Instant::now();
    let outcome = on_global_pool(IltContext::new(ilt_cfg)).optimize(layout, &assignment);
    BaselineResult {
        name: "SUALD [16] + MOSAIC [6]",
        assignment,
        outcome,
        decomposition_selection: ds_time,
        mask_optimization: mo_start.elapsed(),
    }
}

/// `ctx` with per-mask lanes on the global pool when it has two or more
/// threads ([`crate::lanes::on_pool`]).
fn on_global_pool(ctx: IltContext) -> IltContext {
    crate::lanes::on_pool(ctx, &ldmo_par::global())
}

/// The SUALD-style greedy coloring: [`greedy_coloring`] at two masks,
/// canonically oriented. Exposed for tests and ablations.
pub fn suald_decompose(layout: &Layout) -> MaskAssignment {
    let mut assignment = greedy_coloring(layout, 2);
    canonicalize(&mut assignment);
    assignment
}

/// "\[17\] + \[6\]": BFS two-coloring of the conflict graph (the quadruple-
/// patterning heuristic of \[17\] restricted to two masks) followed by one
/// independent ILT run.
pub fn two_stage_bfs(layout: &Layout, ilt_cfg: &IltConfig) -> BaselineResult {
    let ds_start = Instant::now();
    let assignment = bfs_decompose(layout, &ClassifyConfig::default());
    let ds_time = ds_start.elapsed();
    let mo_start = Instant::now();
    let outcome = on_global_pool(IltContext::new(ilt_cfg)).optimize(layout, &assignment);
    BaselineResult {
        name: "LD-QP [17] + MOSAIC [6]",
        assignment,
        outcome,
        decomposition_selection: ds_time,
        mask_optimization: mo_start.elapsed(),
    }
}

/// BFS two-coloring ([`two_color`]) of the conflict graph over all
/// patterns (gap ≤ nmin), canonically oriented; patterns in no conflict
/// alternate between the masks for balance.
pub fn bfs_decompose(layout: &Layout, classify: &ClassifyConfig) -> MaskAssignment {
    let all: Vec<usize> = (0..layout.len()).collect();
    let graph = ConflictGraph::build(layout, &all, classify.nmin);
    let (mut assignment, _) = two_color(&all, &graph.edges);
    let mut in_conflict = vec![false; all.len()];
    for e in &graph.edges {
        in_conflict[e.a] = true;
        in_conflict[e.b] = true;
    }
    let mut next = 0u8;
    for (a, _) in assignment.iter_mut().zip(in_conflict).filter(|(_, c)| !c) {
        *a = next;
        next = 1 - next;
    }
    canonicalize(&mut assignment);
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{sample_decompositions, SamplingConfig};
    use ldmo_geom::Rect;
    use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};

    fn quad_layout(gap: i32) -> Layout {
        let size = 64;
        let pitch = size + gap;
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(120, 120, size),
                Rect::square(120 + pitch, 120, size),
                Rect::square(120, 120 + pitch, size),
                Rect::square(120 + pitch, 120 + pitch, size),
            ],
        )
    }

    fn fast_ilt() -> IltConfig {
        IltConfig {
            max_iterations: 9,
            ..IltConfig::default()
        }
    }

    #[test]
    fn suald_separates_close_pairs() {
        let layout = quad_layout(60);
        let a = suald_decompose(&layout);
        // the quad's conflict graph is a 4-cycle: a proper 2-coloring is a
        // checkerboard; SUALD must split every edge-adjacent pair
        assert_ne!(a[0], a[1]);
        assert_ne!(a[0], a[2]);
        assert_ne!(a[1], a[3]);
        assert_ne!(a[2], a[3]);
        assert_eq!(a[0], 0, "canonical orientation");
    }

    #[test]
    fn bfs_coloring_is_proper_on_bipartite_graphs() {
        let layout = quad_layout(60);
        let a = bfs_decompose(&layout, &ClassifyConfig::default());
        assert_ne!(a[0], a[1]);
        assert_ne!(a[0], a[2]);
        assert_ne!(a[1], a[3]);
        assert_ne!(a[2], a[3]);
    }

    #[test]
    fn colorings_pinned_on_odd_cycles() {
        // On a non-bipartite conflict graph the visit order decides the
        // masks, so each coloring's exact output is pinned: the triangle
        // and two generated layouts with odd conflict cycles.
        let triangle = Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(120, 120, 64),
                Rect::square(248, 120, 64),
                Rect::square(184, 230, 64),
            ],
        );
        let generated = LayoutGenerator::new(GeneratorConfig::default(), 0).generate_dataset(20);
        // (layout, BFS, SUALD, greedy k = 2, greedy k = 3, the one
        // Algorithm 1 candidate, which IV-B sampling also returns)
        type Pins<'a> = (&'a Layout, &'a [u8], &'a [u8], &'a [u8], &'a [u8], &'a [u8]);
        let cases: [Pins; 3] = [
            (
                &triangle,
                &[0, 1, 1],
                &[0, 1, 0],
                &[0, 1, 0],
                &[0, 1, 2],
                &[0, 0, 1],
            ),
            (
                &generated[6],
                &[0, 1, 1, 0, 0],
                &[0, 1, 1, 0, 0],
                &[1, 0, 0, 1, 1],
                &[1, 0, 0, 2, 1],
                &[0, 1, 1, 0, 0],
            ),
            (
                &generated[15],
                &[0, 0, 0, 1, 1, 1],
                &[0, 1, 1, 0, 1, 1],
                &[0, 1, 1, 0, 1, 1],
                &[0, 2, 2, 1, 2, 1],
                &[0, 0, 0, 1, 1, 1],
            ),
        ];
        let nmin = ClassifyConfig::default().nmin;
        for (layout, bfs, suald, greedy2, greedy3, candidate) in cases {
            assert!(!ldmo_decomp::is_dpl_compatible(layout, nmin));
            assert_eq!(bfs_decompose(layout, &ClassifyConfig::default()), bfs);
            assert_eq!(suald_decompose(layout), suald);
            assert_eq!(greedy_coloring(layout, 2), greedy2);
            assert_eq!(greedy_coloring(layout, 3), greedy3);
            let sampled = sample_decompositions(layout, &SamplingConfig::default());
            assert_eq!(sampled, [candidate]);
            assert_eq!(
                generate_candidates(layout, &DecompConfig::default()),
                sampled
            );
        }
    }

    #[test]
    fn bfs_balances_isolated_patterns() {
        let layout = Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(60, 60, 64),
                Rect::square(60, 300, 64),
                Rect::square(300, 60, 64),
                Rect::square(300, 300, 64),
            ],
        );
        let a = bfs_decompose(&layout, &ClassifyConfig::default());
        let ones = a.iter().filter(|&&m| m == 1).count();
        assert_eq!(ones, 2, "isolated patterns should balance: {a:?}");
    }

    #[test]
    fn two_stage_flows_produce_outcomes() {
        let layout = quad_layout(64);
        for result in [
            two_stage_suald(&layout, &fast_ilt()),
            two_stage_bfs(&layout, &fast_ilt()),
        ] {
            assert_eq!(result.assignment.len(), 4);
            assert!(result.mask_optimization > Duration::ZERO);
            assert!(!result.name.is_empty());
        }
    }

    #[test]
    fn unified_flow_prunes_to_one_candidate() {
        let layout = quad_layout(64);
        let cfg = UnifiedConfig {
            ilt: fast_ilt(),
            max_initial: 4,
            ..UnifiedConfig::default()
        };
        let result = unified_flow(&layout, &cfg);
        assert_eq!(result.assignment.len(), 4);
        assert_eq!(result.outcome.iterations_run, fast_ilt().max_iterations);
    }

    #[test]
    fn unified_ds_dominates_runtime() {
        // the paper's Fig. 1(c): decomposition selection takes the larger
        // share of the unified flow's time. Needs a layout with a real
        // candidate set (NAND3_X2 generates 8 candidates).
        let layout = ldmo_layout::cells::cell("NAND3_X2").expect("known cell");
        let cfg = UnifiedConfig {
            ilt: fast_ilt(),
            max_initial: 8,
            ..UnifiedConfig::default()
        };
        let result = unified_flow(&layout, &cfg);
        assert!(
            result.decomposition_selection > result.mask_optimization,
            "DS {:?} should exceed MO {:?}",
            result.decomposition_selection,
            result.mask_optimization
        );
    }

    #[test]
    fn unified_picks_a_printable_decomposition() {
        let layout = quad_layout(60);
        let cfg = UnifiedConfig {
            ilt: fast_ilt(),
            ..UnifiedConfig::default()
        };
        let result = unified_flow(&layout, &cfg);
        let a = &result.assignment;
        assert!(a.contains(&0) && a.contains(&1));
    }
}
