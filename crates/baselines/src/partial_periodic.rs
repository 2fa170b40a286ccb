//! Segment-wise partial periodic pattern mining in the style of Han, Gong &
//! Yin (KDD 1998) / Han, Dong & Yin (ICDE 1999) — the classic symbolic-
//! sequence model the EDBT paper's §2 identifies as the origin of partial
//! periodic search (and criticises for ignoring real temporal information).
//!
//! The series is partitioned into segments of a fixed period `p`; a pattern
//! is a set of `(offset, item)` cells, and a segment *hits* the pattern when
//! every cell's item occurs at the segment's start plus the cell's offset.
//! A pattern is frequent when its hit count reaches `minSup` (a fraction of
//! the number of complete segments). Mining is exact level-wise Apriori —
//! hit counts are anti-monotone over cell sets.

use rpm_core::engine::{AbortReason, RunControl};
use rpm_core::Threshold;
use rpm_timeseries::{intersect_sorted, ItemId, Timestamp, TransactionDb};

/// Parameters of segment-wise mining.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentParams {
    /// Period: the segment length in timestamp units.
    pub period: Timestamp,
    /// Minimum number of hitting segments (absolute or fraction of the
    /// segment count).
    pub min_sup: Threshold,
}

impl SegmentParams {
    /// Creates parameters.
    ///
    /// # Panics
    /// Panics unless `period > 0`.
    pub fn new(period: Timestamp, min_sup: Threshold) -> Self {
        assert!(period > 0, "period must be positive");
        Self { period, min_sup }
    }
}

/// A single cell of a segment pattern: an item expected at a given offset
/// within the period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// Offset within the segment, in `0..period`.
    pub offset: Timestamp,
    /// Expected item.
    pub item: ItemId,
}

/// A discovered partial periodic pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPattern {
    /// The pattern's cells, sorted.
    pub cells: Vec<Cell>,
    /// Number of segments hitting the pattern.
    pub hits: usize,
}

impl SegmentPattern {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the pattern has no cells (never produced by the miner).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Mines all partial periodic patterns of `db` for the given period.
///
/// The database's time span is cut into `⌊span / period⌋` complete segments
/// starting at the first timestamp. Returns the patterns sorted by size then
/// cells, along with the number of segments used as the `minSup` base.
pub fn mine_segments(db: &TransactionDb, params: &SegmentParams) -> (Vec<SegmentPattern>, usize) {
    let (patterns, n_segments, _) = mine_segments_controlled(db, params, &RunControl::new());
    (patterns, n_segments)
}

/// Like [`mine_segments`], under engine control: the level-wise join polls
/// `control`'s probe per candidate pair, so the bench harness can time-box
/// this baseline exactly like the main miner. A tripped limit returns
/// everything mined so far plus the reason.
pub fn mine_segments_controlled(
    db: &TransactionDb,
    params: &SegmentParams,
    control: &RunControl,
) -> (Vec<SegmentPattern>, usize, Option<AbortReason>) {
    let Some((start, end)) = db.time_span() else {
        return (Vec::new(), 0, None);
    };
    let p = params.period;
    let n_segments = ((end - start + 1) / p) as usize;
    if n_segments == 0 {
        return (Vec::new(), 0, None);
    }
    let min_sup = params.min_sup.resolve(n_segments);
    let mut probe = control.start();
    let mut aborted = false;

    // Level 1: hit lists (sorted segment indices) per (offset, item) cell.
    let mut level: Vec<(Vec<Cell>, Vec<u32>)> = {
        let mut cells: std::collections::BTreeMap<Cell, Vec<u32>> =
            std::collections::BTreeMap::new();
        for t in db.transactions() {
            let rel = t.timestamp() - start;
            let seg = rel / p;
            if seg as usize >= n_segments {
                break;
            }
            let offset = rel % p;
            for &item in t.items() {
                let hits = cells.entry(Cell { offset, item }).or_default();
                // A cell can hit a segment at most once (one transaction per
                // timestamp), so indices arrive sorted and unique.
                hits.push(seg as u32);
            }
        }
        cells
            .into_iter()
            .filter(|(_, hits)| hits.len() >= min_sup)
            .map(|(c, hits)| (vec![c], hits))
            .collect()
    };

    let mut out: Vec<SegmentPattern> = level
        .iter()
        .map(|(cells, hits)| SegmentPattern { cells: cells.clone(), hits: hits.len() })
        .collect();

    // Levels k+1: prefix join on sorted cell lists, intersecting hit lists.
    'levels: while level.len() > 1 && !aborted {
        let mut next: Vec<(Vec<Cell>, Vec<u32>)> = Vec::new();
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                if probe.poll().is_some() {
                    aborted = true;
                    break 'levels;
                }
                let (a_cells, a_hits) = &level[i];
                let (b_cells, b_hits) = &level[j];
                let k = a_cells.len();
                if a_cells[..k - 1] != b_cells[..k - 1] {
                    break;
                }
                let mut cells = a_cells.clone();
                cells.push(b_cells[k - 1]);
                let hits = intersect_sorted(a_hits, b_hits);
                if hits.len() >= min_sup {
                    out.push(SegmentPattern { cells: cells.clone(), hits: hits.len() });
                    next.push((cells, hits));
                }
            }
        }
        level = next;
    }

    out.sort_by(|a, b| a.cells.len().cmp(&b.cells.len()).then_with(|| a.cells.cmp(&b.cells)));
    let reason = if aborted { probe.tripped() } else { None };
    (out, n_segments, reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::DbBuilder;

    /// A perfectly periodic toy series: "x" at every even timestamp,
    /// "y" at every odd one, over timestamps 0..8.
    fn alternating_db() -> TransactionDb {
        let mut b = DbBuilder::new();
        for ts in 0..8 {
            b.add_labeled(ts, if ts % 2 == 0 { &["x"] } else { &["y"] });
        }
        b.build()
    }

    #[test]
    fn perfect_periodicity_is_found() {
        let db = alternating_db();
        let (pats, segments) = mine_segments(&db, &SegmentParams::new(2, Threshold::Fraction(1.0)));
        assert_eq!(segments, 4);
        let x = db.items().id("x").unwrap();
        let y = db.items().id("y").unwrap();
        // x@0, y@1 and {x@0,y@1} all hit every segment.
        assert!(
            pats.contains(&SegmentPattern { cells: vec![Cell { offset: 0, item: x }], hits: 4 })
        );
        assert!(
            pats.contains(&SegmentPattern { cells: vec![Cell { offset: 1, item: y }], hits: 4 })
        );
        assert!(pats.contains(&SegmentPattern {
            cells: vec![Cell { offset: 0, item: x }, Cell { offset: 1, item: y }],
            hits: 4
        }));
        assert_eq!(pats.len(), 3);
    }

    #[test]
    fn partial_periodicity_tolerates_exceptions() {
        // x at even ts except one miss at ts 4.
        let mut b = DbBuilder::new();
        for ts in 0..10 {
            if ts % 2 == 0 && ts != 4 {
                b.add_labeled(ts, &["x"]);
            } else if ts % 2 == 1 {
                b.add_labeled(ts, &["pad"]);
            }
        }
        let db = b.build();
        let (strict, _) = mine_segments(&db, &SegmentParams::new(2, Threshold::Fraction(1.0)));
        let x = db.items().id("x").unwrap();
        assert!(!strict.iter().any(|p| p.cells.iter().any(|c| c.item == x)));
        let (partial, _) = mine_segments(&db, &SegmentParams::new(2, Threshold::Fraction(0.75)));
        assert!(partial.iter().any(|p| p.cells == vec![Cell { offset: 0, item: x }]));
    }

    #[test]
    fn hit_counts_are_anti_monotone() {
        let db = alternating_db();
        let (pats, _) = mine_segments(&db, &SegmentParams::new(2, Threshold::Count(1)));
        for p in &pats {
            for q in &pats {
                if p.cells.len() < q.cells.len() && p.cells.iter().all(|c| q.cells.contains(c)) {
                    assert!(p.hits >= q.hits);
                }
            }
        }
    }

    #[test]
    fn incomplete_trailing_segment_is_ignored() {
        let mut b = DbBuilder::new();
        for ts in 0..7 {
            b.add_labeled(ts, &["x"]);
        }
        let db = b.build();
        // Span is [0,6] = 7 stamps; period 3 ⇒ 2 complete segments.
        let (_, segments) = mine_segments(&db, &SegmentParams::new(3, Threshold::Count(1)));
        assert_eq!(segments, 2);
    }

    #[test]
    fn empty_db_and_oversized_period() {
        let db = TransactionDb::builder().build();
        assert_eq!(mine_segments(&db, &SegmentParams::new(5, Threshold::Count(1))).1, 0);
        let db = alternating_db();
        let (pats, segments) = mine_segments(&db, &SegmentParams::new(100, Threshold::Count(1)));
        assert_eq!(segments, 0);
        assert!(pats.is_empty());
    }
}
