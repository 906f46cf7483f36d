//! Regenerates **Fig. 4**: solution accuracy vs. number of selected rows.
//!
//! For one design's fitting problem, sweep the number of uniformly
//! sampled equations `m''` and report the relative solution error
//! `‖x(m'') − x*‖ / ‖x*‖` against the full-problem reference `x*`.
//! The paper's point: accuracy converges sharply once the sample reaches
//! a small multiple of the solution's support, so the doubling strategy
//! of Algorithm 1 terminates with a tiny fraction of the rows.
//!
//! Run with `cargo run --release -p bench --bin fig4_row_convergence [design]`.

use bench::build_engine;
use mgba::prelude::*;
use mgba::solver::cgnr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsela::sampling::UniformSampler;
use sparsela::vecops;

fn main() {
    let spec = match std::env::args().nth(1).as_deref() {
        Some("D2") => DesignSpec::D2,
        Some("D8") => DesignSpec::D8,
        _ => DesignSpec::D1,
    };
    let config = MgbaConfig::default();
    let mut sta = build_engine(spec);
    sta.clear_weights();
    let selection = mgba::select_paths(
        &sta,
        SelectionScheme::PerEndpoint {
            k: config.paths_per_endpoint,
            max_total: config.max_paths,
        },
        true,
    );
    let problem = FitProblem::build(&sta, &selection.paths, config.epsilon, config.penalty);
    let m = problem.num_paths();
    let reference = cgnr::solve(&problem, &config);
    let x_star = &reference.x;
    let x_norm = vecops::norm2(x_star).max(1e-30);

    println!("Fig. 4: accuracy of x vs. number of selected rows ({spec})");
    println!(
        "(problem {} x {}; reference x* solved with CGNR on all rows)",
        m,
        problem.num_gates()
    );
    println!(
        "(phi = Eq. (10) fit error on the FULL problem; x-dist = ||x-x*||/||x*||,\n meaningful only once rows exceed the {} columns — below that the\n subproblem is underdetermined and many x fit equally well)\n",
        problem.num_gates()
    );
    println!("{:>8} {:>9} {:>9}  bar (phi)", "rows", "phi(%)", "x-dist");

    let sampler = UniformSampler::new();
    let mut rng = StdRng::seed_from_u64(42);
    let mut rows_list: Vec<usize> = Vec::new();
    let mut r = 32usize;
    while r < m {
        rows_list.push(r);
        r *= 2;
    }
    rows_list.push(m);
    for rows in rows_list {
        let subset = sampler.sample(&mut rng, m, rows);
        let (reduced, cols) = problem.subproblem(&subset);
        let solved = cgnr::solve(&reduced, &config);
        // Columns no sampled row touches keep weight 0.
        let mut x = vec![0.0; problem.num_gates()];
        for (&j, &v) in cols.iter().zip(&solved.x) {
            x[j] = v;
        }
        let err = {
            let diff: f64 = x
                .iter()
                .zip(x_star)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            diff / x_norm
        };
        let phi = problem.phi(&x);
        let bar = "#".repeat(((phi * 100.0 * 8.0) as usize).min(60));
        println!("{rows:>8} {:>9.2} {err:>9.3}  {bar}", phi * 100.0);
    }
    println!("\npaper shape: error collapses once rows exceed the solution support,");
    println!("long before the full {m}-row system is used");
}
