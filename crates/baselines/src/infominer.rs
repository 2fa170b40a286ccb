//! InfoMiner-style mining of *surprising* periodic patterns (Yang, Wang &
//! Yu, ICDM 2002 — the paper's reference \[8\], "InfoMiner+: mining partial
//! periodic patterns with gap penalties").
//!
//! Support thresholds treat all items alike, so rare-but-regular behaviour
//! drowns under frequent noise — the same rare-item problem the EDBT paper
//! tackles with `minPS`. InfoMiner instead weighs each cell
//! `(offset, item)` by its **information** `I = −log₂ P(cell)` (estimated
//! from the segment frequencies) and scores a pattern by its **generalized
//! information gain**
//!
//! ```text
//! gain(P) = info(P) · hits(P) − penalty · info(P) · misses(P)
//! ```
//!
//! where `misses` counts segments between the first and last hit that do
//! not support the pattern (the "gap penalty" of InfoMiner+). Gain is not
//! anti-monotone, so the search is branch-and-bound: a candidate is pruned
//! when even the optimistic completion (all remaining high-information
//! cells joined at the current hit count, zero penalties) stays below the
//! threshold.

use rpm_timeseries::{intersect_sorted, TransactionDb};

use crate::partial_periodic::{Cell, SegmentParams, SegmentPattern};

/// Parameters of InfoMiner-style mining.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoParams {
    /// Period (segment length), as in [`SegmentParams`].
    pub period: i64,
    /// Minimum generalized information gain for a pattern to be reported.
    pub min_gain: f64,
    /// Penalty weight per missed segment inside the pattern's span.
    pub gap_penalty: f64,
}

impl InfoParams {
    /// Creates parameters.
    ///
    /// # Panics
    /// Panics unless `period > 0`, `min_gain > 0` and `gap_penalty >= 0`.
    pub fn new(period: i64, min_gain: f64, gap_penalty: f64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(min_gain > 0.0, "min_gain must be positive");
        assert!(gap_penalty >= 0.0, "gap_penalty must be non-negative");
        Self { period, min_gain, gap_penalty }
    }
}

/// A surprising periodic pattern with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoPattern {
    /// The pattern's cells, sorted.
    pub cells: Vec<Cell>,
    /// Segments supporting every cell.
    pub hits: usize,
    /// Σ −log₂ P(cell).
    pub information: f64,
    /// Generalized information gain.
    pub gain: f64,
}

/// Mines all patterns with `gain ≥ min_gain`. Returns the patterns (sorted
/// by descending gain) and the number of complete segments.
pub fn mine_infominer(db: &TransactionDb, params: &InfoParams) -> (Vec<InfoPattern>, usize) {
    let Some((start, end)) = db.time_span() else {
        return (Vec::new(), 0);
    };
    let p = params.period;
    let n_segments = ((end - start + 1) / p) as usize;
    if n_segments == 0 {
        return (Vec::new(), 0);
    }

    // Cell hit-lists (sorted segment indices).
    let mut cells: std::collections::BTreeMap<Cell, Vec<u32>> = std::collections::BTreeMap::new();
    for t in db.transactions() {
        let rel = t.timestamp() - start;
        let seg = (rel / p) as u32;
        if seg as usize >= n_segments {
            break;
        }
        let offset = rel % p;
        for &item in t.items() {
            let hits = cells.entry(Cell { offset, item }).or_default();
            if hits.last() != Some(&seg) {
                hits.push(seg);
            }
        }
    }

    // Per-cell information; a cell present in every segment carries zero
    // information and can never contribute, so it is dropped.
    struct CellInfo {
        cell: Cell,
        hits: Vec<u32>,
        info: f64,
    }
    let mut universe: Vec<CellInfo> = cells
        .into_iter()
        .filter_map(|(cell, hits)| {
            let prob = hits.len() as f64 / n_segments as f64;
            let info = -(prob.log2());
            (info > 0.0).then_some(CellInfo { cell, hits, info })
        })
        .collect();
    universe.sort_by_key(|c| c.cell);

    // Suffix maxima of information for the optimistic bound: joining cells
    // i.. can add at most `suffix_info[i]` information.
    let mut suffix_info = vec![0.0f64; universe.len() + 1];
    for i in (0..universe.len()).rev() {
        suffix_info[i] = suffix_info[i + 1] + universe[i].info;
    }

    let mut out: Vec<InfoPattern> = Vec::new();
    let mut stack_cells: Vec<Cell> = Vec::new();

    // DFS with branch-and-bound.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        universe: &[CellInfo],
        suffix_info: &[f64],
        from: usize,
        hits: &[u32],
        info: f64,
        params: &InfoParams,
        stack: &mut Vec<Cell>,
        out: &mut Vec<InfoPattern>,
    ) {
        if !stack.is_empty() {
            let span = (hits.last().unwrap() - hits.first().unwrap() + 1) as usize;
            let misses = span - hits.len();
            let gain = info * hits.len() as f64 - params.gap_penalty * info * misses as f64;
            if gain >= params.min_gain {
                out.push(InfoPattern {
                    cells: stack.clone(),
                    hits: hits.len(),
                    information: info,
                    gain,
                });
            }
        }
        for next in from..universe.len() {
            // Optimistic completion: current hit count, all remaining info,
            // zero misses.
            let ub = (info + suffix_info[next])
                * hits.len().max(if stack.is_empty() { universe[next].hits.len() } else { 0 })
                    as f64;
            if ub < params.min_gain {
                // Cells are not ordered by info, so this bound only
                // justifies skipping when no later cell could help either —
                // which suffix_info already accounts for. Safe to stop this
                // branch entirely.
                if info + suffix_info[next] == 0.0 {
                    break;
                }
                continue;
            }
            let joined: Vec<u32> = if stack.is_empty() {
                universe[next].hits.clone()
            } else {
                intersect_sorted(hits, &universe[next].hits)
            };
            if joined.is_empty() {
                continue;
            }
            stack.push(universe[next].cell);
            dfs(
                universe,
                suffix_info,
                next + 1,
                &joined,
                info + universe[next].info,
                params,
                stack,
                out,
            );
            stack.pop();
        }
    }
    dfs(&universe, &suffix_info, 0, &[], 0.0, params, &mut stack_cells, &mut out);

    out.sort_by(|a, b| b.gain.total_cmp(&a.gain).then_with(|| a.cells.cmp(&b.cells)));
    (out, n_segments)
}

/// Convenience: converts an [`InfoPattern`] to the plain segment-pattern
/// shape for comparison with the support-based miners.
pub fn to_segment_pattern(p: &InfoPattern) -> SegmentPattern {
    SegmentPattern { cells: p.cells.clone(), hits: p.hits }
}

/// The support-based equivalent threshold for calibration experiments: the
/// segment parameters whose miner a given info run should be compared with.
pub fn comparable_segment_params(params: &InfoParams, min_sup_fraction: f64) -> SegmentParams {
    SegmentParams::new(params.period, rpm_core::Threshold::Fraction(min_sup_fraction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::DbBuilder;

    /// 20 daily segments of length 4: "common" fires at offset 0 in every
    /// segment; "rare" fires at offset 1 in 5 of 20 segments but perfectly
    /// regularly (every 4th); "noise" fires haphazardly.
    fn skewed_db() -> TransactionDb {
        let mut b = DbBuilder::new();
        for seg in 0..20i64 {
            let base = seg * 4;
            b.add_labeled(base, &["common"]);
            if seg % 4 == 0 {
                b.add_labeled(base + 1, &["rare"]);
            }
            if seg % 3 == 1 {
                b.add_labeled(base + 2, &["noise"]);
            }
        }
        // Pad the span to exactly 20 complete segments (ts 0..=79).
        b.add_labeled(79, &["pad"]);
        b.build()
    }

    #[test]
    fn rare_regular_cell_outscores_common_per_occurrence() {
        let db = skewed_db();
        let (pats, segments) = mine_infominer(&db, &InfoParams::new(4, 1.0, 0.0));
        assert_eq!(segments, 20);
        let rare = db.items().id("rare").unwrap();
        let common = db.items().id("common").unwrap();
        let gain_of = |item| {
            pats.iter()
                .find(|p| p.cells.len() == 1 && p.cells[0].item == item)
                .map(|p| (p.information, p.gain))
        };
        // 'common' holds in every segment ⇒ zero information ⇒ absent.
        assert!(gain_of(common).is_none());
        let (info, gain) = gain_of(rare).expect("rare cell is surprising");
        assert!((info - 2.0).abs() < 1e-9, "P=5/20 ⇒ 2 bits, got {info}");
        assert!(gain > 0.0);
    }

    #[test]
    fn gap_penalty_downweights_spread_out_patterns() {
        let db = skewed_db();
        let rare = db.items().id("rare").unwrap();
        let find = |penalty: f64| {
            let (pats, _) = mine_infominer(&db, &InfoParams::new(4, 0.1, penalty));
            pats.iter().find(|p| p.cells.len() == 1 && p.cells[0].item == rare).map(|p| p.gain)
        };
        let no_penalty = find(0.0).unwrap();
        let with_penalty = find(0.2).unwrap();
        // rare hits segments 0,4,8,12,16: span 17, misses 12.
        assert!(with_penalty < no_penalty);
        assert!((no_penalty - 2.0 * 5.0).abs() < 1e-9);
        assert!((with_penalty - (10.0 - 0.2 * 2.0 * 12.0)).abs() < 1e-9);
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_enumeration() {
        // Small random databases: compare against a no-pruning enumeration.
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(13);
        for _ in 0..5 {
            let mut b = DbBuilder::new();
            for ts in 0..60i64 {
                let labels: Vec<String> =
                    (0..3).filter(|_| rng.random_f64() < 0.35).map(|i| format!("s{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    b.add_labeled(ts, &refs);
                }
            }
            let db = b.build();
            let params = InfoParams::new(5, 2.5, 0.1);
            let (fast, _) = mine_infominer(&db, &params);
            // Exhaustive oracle: all cell subsets via a permissive run.
            let (all, _) = mine_infominer(&db, &InfoParams::new(5, f64::MIN_POSITIVE, 0.1));
            let expected: Vec<&InfoPattern> =
                all.iter().filter(|p| p.gain >= params.min_gain).collect();
            assert_eq!(fast.len(), expected.len());
            for (a, b) in fast.iter().zip(expected) {
                assert_eq!(a.cells, b.cells);
                assert!((a.gain - b.gain).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn output_is_sorted_by_gain() {
        let db = skewed_db();
        let (pats, _) = mine_infominer(&db, &InfoParams::new(4, 0.5, 0.0));
        assert!(pats.windows(2).all(|w| w[0].gain >= w[1].gain));
        assert!(!pats.is_empty());
    }

    #[test]
    fn empty_db_and_conversion() {
        let db = DbBuilder::new().build();
        assert_eq!(mine_infominer(&db, &InfoParams::new(4, 1.0, 0.0)).1, 0);
        let p = InfoPattern { cells: vec![], hits: 3, information: 1.0, gain: 3.0 };
        assert_eq!(to_segment_pattern(&p).hits, 3);
    }
}
