//! Fig 15 in miniature: time all four closed cubers over the
//! (dependence, min_sup) grid and put the planner's choice beside the
//! measured winner — driven through a [`CubeSession`] per table, so the
//! planner input is the session's *measured* [`TableStats`] (real
//! cardinalities, skew and estimated dependence), not hand-filled figures.
//! Each cell prints `winner/pick` and the planner's regret: the pick's time
//! over the winner's.
//!
//! ```sh
//! cargo run --release --example algorithm_advisor
//! ```

use c_cubing::prelude::*;
use std::time::Instant;

const CLOSED: [Algorithm; 4] = [
    Algorithm::QcDfs,
    Algorithm::CCubingMm,
    Algorithm::CCubingStar,
    Algorithm::CCubingStarArray,
];

fn main() {
    let tuples = 40_000;
    let cards = vec![20u32; 8];
    let min_sups = [1u64, 4, 16, 64];
    let dependences = [0.0, 1.0, 2.0, 3.0];

    println!("measured winner / planner pick (regret) among the four closed cubers");
    println!("grid: T={tuples}, D=8, C=20, S=0  (planner input: measured TableStats)\n");
    print!("{:>6} |", "R\\M");
    for m in min_sups {
        print!(" {m:>33} |");
    }
    println!();

    let mut log_regret = 0.0;
    let mut worst = 1.0f64;
    let mut total = 0;
    for r in dependences {
        print!("{r:>6} |");
        for m in min_sups {
            let rules = RuleSet::with_dependence(&cards, r, 99);
            let table = SyntheticSpec {
                tuples,
                cards: cards.clone(),
                skews: vec![0.0; 8],
                seed: 1,
                rules: Some(rules),
            }
            .generate();
            let mut session = CubeSession::new(table).expect("ordinary table");

            let mut time = |algo: Algorithm| {
                let start = Instant::now();
                session.query().min_sup(m).algorithm(algo).stats().unwrap();
                start.elapsed().as_secs_f64()
            };
            let times: Vec<(Algorithm, f64)> = CLOSED.iter().map(|&a| (a, time(a))).collect();
            let (winner, best) = times
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("four cubers");

            // The planner's pick from the *measured* statistics (the same
            // call `session.query().min_sup(m).plan()` resolves through).
            let pick = session.recommend(m);
            let picked = times.iter().find(|(a, _)| *a == pick).expect("closed").1;
            let regret = picked / best.max(1e-9);
            log_regret += regret.ln();
            worst = worst.max(regret);
            total += 1;
            print!(
                " {:>13}/{:<13} {regret:>4.2}x |",
                winner.name(),
                pick.name()
            );
        }
        println!();
    }
    println!(
        "\nplanner regret over {total} points: geomean {:.2}x, max {worst:.2}x \
         (paper's expected shape: CC(Star) holds the low-min_sup, high-R corner; \
         one run per cuber, so small cells are noisy)",
        (log_regret / f64::from(total)).exp()
    );

    // What-if advisories with no table at hand fill the statistics in by
    // hand:
    let what_if = TableStats {
        tuples: 400_000,
        cardinalities: vec![2000],
        skews: vec![0.0],
        dependence: 0.0,
    };
    println!(
        "what-if (no table): T=400K, M=2, C=2000, R=0 -> {}",
        recommend(&what_if, 2)
    );
}
