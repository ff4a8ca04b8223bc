//! E13 — constraint discovery: what mining costs and what adoption buys.
//!
//! Four questions over generated basket workloads:
//!
//! * **discovery throughput** — wall-clock for `miner::mine` as the dataset
//!   grows (the vertical store makes this scale with baskets/64 per cover
//!   probe);
//! * **vertical speedup** — the same levelwise Apriori run counting
//!   candidates through the vertical index versus the horizontal scan
//!   ([`fis::apriori::apriori`] vs [`fis::apriori::apriori_scan`]), and the
//!   border computations that reuse the index;
//! * **bound tightening** — total `bound`-interval width over unknown
//!   itemsets before and after `adopt` on a session with true singleton
//!   supports known;
//! * **NDI pruning** — support scans for the NDI representation with and
//!   without the adopted cover.
//!
//! The count tables and self-measured timings are written to
//! `BENCH_discover.json` at the repository root for trend tracking, by the
//! `E13_report` step, which a bench filter runs only when it names it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcon_bench::{JsonReport, Table};
use diffcon_bounds::{mining, BoundsConfig};
use diffcon_discover::{miner, Dataset, MinerConfig};
use diffcon_engine::Session;
use fis::apriori::{apriori, apriori_scan};
use fis::basket::BasketDb;
use fis::generator::{self, QuestConfig};
use setlat::{AttrSet, Universe};
use std::time::Instant;

/// A correlated workload with planted implications: whenever item `i < 2`
/// occurs, item `i + 1` is added too, so `A → {B}` and `B → {C}` hold
/// exactly and the miner has real structure to find.
fn planted_db(seed: u64, num_items: usize, num_baskets: usize) -> BasketDb {
    let raw = generator::quest_like(
        seed,
        &QuestConfig {
            num_items,
            num_baskets,
            ..QuestConfig::default()
        },
    );
    BasketDb::from_baskets(
        num_items,
        raw.baskets().iter().map(|&b| {
            let mut b = b;
            for i in 0..2 {
                if b.contains(i) {
                    b.insert(i + 1);
                }
            }
            b
        }),
    )
}

fn bench_discovery_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("E13_mine_by_baskets");
    group.sample_size(10);
    for &baskets in &[100usize, 400, 1600] {
        let universe = Universe::of_size(10);
        let db = planted_db(23, 10, baskets);
        let dataset = Dataset::from_db(universe, db);
        group.bench_with_input(BenchmarkId::new("mine", baskets), &dataset, |b, ds| {
            b.iter(|| miner::mine(ds, &MinerConfig::default()).minimal.len())
        });
    }
    group.finish();
}

fn bench_apriori_vertical_vs_scan(c: &mut Criterion) {
    let db = planted_db(31, 14, 2000);
    let kappa = db.len() / 8;
    let mut group = c.benchmark_group("E13_apriori_counting");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("vertical", kappa), &db, |b, db| {
        b.iter(|| apriori(db, kappa).candidates_counted)
    });
    group.bench_with_input(BenchmarkId::new("scan", kappa), &db, |b, db| {
        b.iter(|| apriori_scan(db, kappa).candidates_counted)
    });
    group.finish();
}

/// Discovery throughput table plus self-measured timings for the JSON
/// report.
fn table_discovery_throughput(report: &mut JsonReport) -> Table {
    let mut table = Table::new(
        "E13: discovery throughput vs dataset size (10 items, budgets 2/2)",
        [
            "baskets",
            "minimal",
            "cover",
            "candidates",
            "ms",
            "baskets_per_s",
        ],
    );
    for &baskets in &[100usize, 400, 1600, 6400] {
        let universe = Universe::of_size(10);
        let db = planted_db(23, 10, baskets);
        let dataset = Dataset::from_db(universe, db);
        let start = Instant::now();
        let discovery = miner::mine(&dataset, &MinerConfig::default());
        let elapsed = start.elapsed();
        let ms = elapsed.as_secs_f64() * 1e3;
        table.push_row([
            baskets.to_string(),
            discovery.minimal.len().to_string(),
            discovery.cover.len().to_string(),
            discovery.stats.candidates.to_string(),
            format!("{ms:.2}"),
            format!("{:.0}", baskets as f64 / elapsed.as_secs_f64()),
        ]);
        if baskets == 1600 {
            report.push_metric("mine_ms_1600_baskets", ms);
        }
    }
    table
}

/// Apriori/border vertical-vs-scan speedup table (the satellite's "record
/// the speedup" requirement).
fn table_vertical_speedup(report: &mut JsonReport) -> Table {
    let mut table = Table::new(
        "E13: levelwise candidate counting, vertical index vs horizontal scan",
        [
            "items",
            "baskets",
            "kappa",
            "candidates",
            "scan_ms",
            "vertical_ms",
            "speedup",
        ],
    );
    for &(items, baskets) in &[(12usize, 1000usize), (14, 2000), (14, 8000)] {
        let db = planted_db(31, items, baskets);
        let kappa = baskets / 8;
        let start = Instant::now();
        let scan = apriori_scan(&db, kappa);
        let scan_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let vertical = apriori(&db, kappa);
        let vertical_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(scan, vertical, "the two counting paths must agree");
        let speedup = scan_ms / vertical_ms;
        table.push_row([
            items.to_string(),
            baskets.to_string(),
            kappa.to_string(),
            vertical.candidates_counted.to_string(),
            format!("{scan_ms:.2}"),
            format!("{vertical_ms:.2}"),
            format!("{speedup:.1}"),
        ]);
        if (items, baskets) == (14, 8000) {
            report.push_metric("apriori_vertical_speedup", speedup);
        }
    }
    table
}

/// Bound-width and NDI-scan wins from adopting discovered constraints.
fn table_adoption_wins(report: &mut JsonReport) -> Table {
    let mut table = Table::new(
        "E13: what adopting the discovered cover buys (12 items)",
        [
            "baskets",
            "cover",
            "width_before",
            "width_after",
            "exact_after",
            "ndi_scans_plain",
            "ndi_scans_adopted",
        ],
    );
    for &baskets in &[200usize, 800] {
        let n = 12;
        let universe = Universe::of_size(n);
        let db = planted_db(47, n, baskets);
        let mut session = Session::new(universe.clone());
        let records: Vec<String> = db
            .baskets()
            .iter()
            .map(|&b| fis::basket::format_record(&universe, b))
            .collect();
        session
            .load_records(records.iter().map(String::as_str))
            .expect("generated baskets re-parse");
        // Knowns: the empty set and every singleton, at their true supports.
        session.set_known(AttrSet::EMPTY, db.len() as f64);
        for i in 0..n {
            session.set_known(
                AttrSet::singleton(i),
                db.support(AttrSet::singleton(i)) as f64,
            );
        }
        // Queries: every adjacent pair (unknown itemsets).
        let queries: Vec<AttrSet> = (0..n - 1)
            .map(|i| AttrSet::from_indices([i, i + 1]))
            .collect();
        let width = |session: &mut Session| -> (f64, usize) {
            let mut total = 0.0;
            let mut exact = 0usize;
            for &q in &queries {
                let interval = session
                    .bound(q)
                    .expect("true supports are feasible")
                    .interval;
                total += interval.width();
                exact += interval.is_exact() as usize;
            }
            (total, exact)
        };
        let (width_before, _) = width(&mut session);
        let outcome = session
            .adopt_discovered(&MinerConfig::default())
            .expect("dataset is loaded");
        let (width_after, exact_after) = width(&mut session);
        assert!(
            width_after <= width_before,
            "adoption must never widen bounds"
        );
        let cover = outcome.discovery.cover;
        let kappa = baskets / 8;
        let (_, plain) =
            mining::ndi_under_constraints(&db, &[], kappa, &BoundsConfig::mining()).unwrap();
        let (_, adopted) =
            mining::ndi_under_constraints(&db, &cover, kappa, &BoundsConfig::mining()).unwrap();
        assert!(
            adopted.support_scans <= plain.support_scans,
            "adoption must never add NDI scans"
        );
        table.push_row([
            baskets.to_string(),
            cover.len().to_string(),
            format!("{width_before:.0}"),
            format!("{width_after:.0}"),
            exact_after.to_string(),
            plain.support_scans.to_string(),
            adopted.support_scans.to_string(),
        ]);
        if baskets == 800 {
            report.push_metric("bound_width_before", width_before);
            report.push_metric("bound_width_after", width_after);
            report.push_metric("ndi_scans_plain", plain.support_scans as f64);
            report.push_metric("ndi_scans_adopted", adopted.support_scans as f64);
            // The acceptance criterion's measured win: the planted A → {B},
            // B → {C} structure must show up as a strict improvement.
            assert!(
                width_after < width_before,
                "expected a strict bound-tightening win"
            );
            assert!(
                adopted.support_scans < plain.support_scans,
                "expected a strict NDI-scan win"
            );
        }
    }
    table
}

fn emit_json_report() {
    let mut report = JsonReport::new("discover");
    let throughput = table_discovery_throughput(&mut report);
    throughput.eprint();
    report.push_table(throughput);
    let speedup = table_vertical_speedup(&mut report);
    speedup.eprint();
    report.push_table(speedup);
    let wins = table_adoption_wins(&mut report);
    wins.eprint();
    report.push_table(wins);
    match report.write_to_repo_root("BENCH_discover.json") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_discover.json: {e}"),
    }
}

fn bench_report(c: &mut Criterion) {
    if c.selects("E13_report") {
        emit_json_report();
    }
}

criterion_group!(
    benches,
    bench_discovery_throughput,
    bench_apriori_vertical_vs_scan,
    bench_report
);
criterion_main!(benches);
