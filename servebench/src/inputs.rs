//! Everything the server receives, generated from the workload seed: the
//! datasets (twitter, shop and quest simulations), their hot parameters,
//! append batches, stab points and the Table 4 grid.

use rpm_core::{ResolvedParams, RpParams, Threshold};
use rpm_datagen::{
    generate_clickstream, generate_quest, generate_twitter, QuestConfig, ShopConfig, TwitterConfig,
};
use rpm_timeseries::{to_bytes, Pcg32, Timestamp, TransactionDb};

/// The Table 4 `per` grid (minutes, or transaction distances for T10).
pub const PER_GRID: [Timestamp; 3] = [360, 720, 1440];
/// The Table 4 `minRec` grid.
pub const MIN_REC_GRID: [usize; 3] = [1, 2, 3];
/// Append batch sizes on `ingest`, one block's worth. Three small batches
/// of each kind per 100-row batch put the append p50 inside the dense
/// population of small appends: with one of each size, it sat at that
/// population's upper edge and moved by a tenth between identical runs.
pub const BATCH_SIZES: [usize; 7] = [1, 1, 1, 10, 10, 10, 100];

/// Dataset scales for one run (calendar compression for the simulations,
/// transaction-count fraction of T10I4D100K for quest).
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    /// Twitter sim behind `ingest` and `query`.
    pub twitter: f64,
    /// Twitter sim inside the `explore` grid.
    pub explore_twitter: f64,
    /// Shop-14 sim (the `explore` grid, and the census sweep elsewhere).
    pub shop: f64,
    /// T10I4D100K quest data inside the `explore` grid.
    pub quest: f64,
}

impl Scales {
    pub const DEFAULT: Scales =
        Scales { twitter: 0.12, explore_twitter: 0.1, shop: 0.5, quest: 0.25 };
    /// For the smoke test: every path, seconds instead of minutes.
    pub const TINY: Scales =
        Scales { twitter: 0.06, explore_twitter: 0.02, shop: 0.05, quest: 0.02 };
}

/// Which generator a dataset comes from; fixes its Table 4 minPS triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Twitter,
    Shop,
    Quest,
}

impl Kind {
    /// The `minPS` percentages Table 4 sweeps for this dataset.
    pub fn min_ps_grid(self) -> [f64; 3] {
        match self {
            Kind::Twitter => [2.0, 5.0, 10.0],
            Kind::Shop | Kind::Quest => [0.1, 0.2, 0.3],
        }
    }
}

/// splitmix64: independent sub-seeds from one workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One of the paper's three datasets at `scale`. The datasets are fixed:
/// each generator runs with its own default seed, as the paper's datasets
/// are fixed. How hard a dataset is to mine swings several-fold between
/// generator seeds (the Twitter sim's hot result ranges from 8k to 32k
/// patterns at scale 0.15), which would drown every measurement; the
/// workload seed drives the requests instead.
pub fn generate(kind: Kind, scale: f64) -> TransactionDb {
    match kind {
        Kind::Twitter => generate_twitter(&TwitterConfig { scale, ..Default::default() }).db,
        Kind::Shop => generate_clickstream(&ShopConfig { scale, ..Default::default() }).db,
        Kind::Quest => generate_quest(&QuestConfig::default().scaled(scale)),
    }
}

/// One dataset as the server sees it: name, upload body and hot params.
pub struct Upload {
    pub name: &'static str,
    pub kind: Kind,
    /// The uploaded content (binary `RPMB` body below).
    pub db: TransactionDb,
    pub body: Vec<u8>,
    pub hot: ResolvedParams,
}

impl Upload {
    pub fn new(name: &'static str, kind: Kind, db: TransactionDb, hot: ResolvedParams) -> Self {
        let body = to_bytes(&db);
        Self { name, kind, db, body, hot }
    }

    pub fn upload_target(&self) -> String {
        format!("/v1/datasets/{}?{}", self.name, hot_query(self.hot))
    }

    pub fn fetch_target(&self) -> String {
        format!("/v1/datasets/{}/mine?{}", self.name, hot_query(self.hot))
    }

    pub fn append_target(&self) -> String {
        format!("/v1/datasets/{}/append", self.name)
    }

    pub fn stab_target(&self, stab: Stab) -> String {
        let q = hot_query(self.hot);
        match stab {
            Stab::At(at) => format!("/v1/datasets/{}/active?{q}&at={at}", self.name),
            Stab::During(from, to) => {
                format!("/v1/datasets/{}/active?{q}&from={from}&to={to}", self.name)
            }
        }
    }
}

/// Hot parameters as a query string (min-ps as an absolute count).
pub fn hot_query(hot: ResolvedParams) -> String {
    format!("per={}&min-ps={}&min-rec={}", hot.per, hot.min_ps, hot.min_rec)
}

/// Hot params `(per, pct% of db as a count, min_rec)`, checked to lie off
/// the dataset's Table 4 grid so no grid cell is ever served from the hot
/// entry.
pub fn off_grid_hot(kind: Kind, db: &TransactionDb, per: Timestamp, pct: f64) -> ResolvedParams {
    let hot = RpParams::with_threshold(per, Threshold::pct(pct), 1).resolve(db.len());
    let on_grid = grid_cells(kind).iter().any(|c| c.resolved(db.len()) == hot);
    assert!(!on_grid, "hot params {hot:?} collide with a grid cell");
    hot
}

/// One cell of a dataset's Table 4 grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub per: Timestamp,
    pub min_ps_pct: f64,
    pub min_rec: usize,
}

impl Cell {
    pub fn resolved(self, db_len: usize) -> ResolvedParams {
        RpParams::with_threshold(self.per, Threshold::pct(self.min_ps_pct), self.min_rec)
            .resolve(db_len)
    }

    /// The query string as a client writes it (`%` percent-encoded).
    pub fn query(self) -> String {
        format!("per={}&min-ps={}%25&min-rec={}", self.per, self.min_ps_pct, self.min_rec)
    }
}

/// The 27 cells of one dataset's grid, in table order.
pub fn grid_cells(kind: Kind) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(27);
    for &per in &PER_GRID {
        for &min_ps_pct in &kind.min_ps_grid() {
            for &min_rec in &MIN_REC_GRID {
                cells.push(Cell { per, min_ps_pct, min_rec });
            }
        }
    }
    cells
}

/// Fisher–Yates with the harness PRNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut Pcg32) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// A stab: `active?at=` or `active?from=&to=`.
#[derive(Debug, Clone, Copy)]
pub enum Stab {
    At(Timestamp),
    During(Timestamp, Timestamp),
}

/// Seeded stabs spread evenly over `[lo, hi]`: a van der Corput sequence
/// under a seeded rotation, so every prefix covers the range evenly and the
/// seed moves the points without changing how they spread (uniform random
/// points moved `explore`'s stab p50 by a quarter between seeds). Every
/// fifth stab is a window of up to four `per` wide.
pub fn stabs(rng: &mut Pcg32, lo: Timestamp, hi: Timestamp, per: Timestamp, n: usize) -> Vec<Stab> {
    let rotation = rng.random_f64();
    let span = (hi - lo + 1) as f64;
    (0..n)
        .map(|i| {
            let at = lo + ((van_der_corput(i as u64) + rotation).fract() * span) as Timestamp;
            if i % 5 == 4 {
                Stab::During(at, at + rng.random_range(1..=4 * per))
            } else {
                Stab::At(at)
            }
        })
        .collect()
}

/// The base-2 radical inverse of `i`, in `[0, 1)`.
fn van_der_corput(mut i: u64) -> f64 {
    let (mut x, mut bit) = (0.0, 0.5);
    while i > 0 {
        if i & 1 == 1 {
            x += bit;
        }
        bit /= 2.0;
        i >>= 1;
    }
    x
}

/// `(timestamp, labels)` rows, the append route's unit.
pub type Row = (Timestamp, Vec<String>);

pub fn rows_of(db: &TransactionDb) -> Vec<Row> {
    db.transactions()
        .iter()
        .map(|t| {
            let labels = t.items().iter().map(|&i| db.items().label(i).to_string()).collect();
            (t.timestamp(), labels)
        })
        .collect()
}

/// `n` rows continuing `db` past its end, one tick apart: the items of `n`
/// transactions taken evenly across the stream from a seeded start, so the
/// rows' make-up is the same whatever the seed.
pub fn continuation(db: &TransactionDb, rng: &mut Pcg32, n: usize) -> Vec<Row> {
    let (_, last) = db.time_span().expect("non-empty dataset");
    let rows = rows_of(db);
    let step = (rows.len() / n.max(1)).max(1);
    let start = rng.random_range(0..step);
    rows.into_iter()
        .skip(start)
        .step_by(step)
        .take(n)
        .zip(1..)
        .map(|((_, labels), j)| (last + j, labels))
        .collect()
}

/// Splits `rows`, in order, into batches of the given `sizes`: each block
/// of `sizes.len()` batches holds every entry of `sizes` once, in seeded
/// order, so any run of whole blocks has the same mix. The last batch may
/// be shorter; at most `max_batches` are produced.
pub fn batches(
    rng: &mut Pcg32,
    rows: &[Row],
    sizes: &[usize],
    max_batches: usize,
) -> Vec<Vec<Row>> {
    let mut out = Vec::new();
    let mut at = 0;
    let mut block: Vec<usize> = Vec::new();
    while at < rows.len() && out.len() < max_batches {
        if block.is_empty() {
            block = sizes.to_vec();
            shuffle(&mut block, rng);
        }
        let size = block.pop().expect("refilled above");
        let end = (at + size).min(rows.len());
        out.push(rows[at..end].to_vec());
        at = end;
    }
    out
}

/// An append body: `ts<TAB>label label…` lines.
pub fn append_body(rows: &[Row]) -> Vec<u8> {
    let mut out = String::new();
    for (ts, labels) in rows {
        out.push_str(&ts.to_string());
        out.push('\t');
        out.push_str(&labels.join(" "));
        out.push('\n');
    }
    out.into_bytes()
}
