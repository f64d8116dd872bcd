//! Active database learning (paper §10 future work, CIDR'17 follow-on):
//! the engine proactively picks the queries that most improve its model.
//!
//! We give the planner a grid of candidate ranges and let it choose five
//! proactive queries; compare the model's average uncertainty against
//! five randomly chosen queries.
//!
//! Run with: `cargo run --release --example active_learning`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verdict::core::active::{plan_batch, rank_candidates};
use verdict::core::covariance::AggMode;
use verdict::core::inference::TrainedModel;
use verdict::core::learning::PriorMean;
use verdict::core::{KernelParams, Observation, Region, SchemaInfo};
use verdict::storage::Predicate;
use verdict::workload::synthetic::SmoothField;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(61);
    let schema = SchemaInfo::new(vec![verdict::core::DimensionSpec::numeric("t", 0.0, 100.0)])?;
    let field = SmoothField::sample(1.5, &mut rng);
    let truth = |lo: f64, hi: f64| -> f64 {
        let steps = 40;
        (0..steps)
            .map(|i| field.at((lo + (i as f64 + 0.5) / steps as f64 * (hi - lo)) / 10.0))
            .sum::<f64>()
            / steps as f64
    };
    let region = |lo: f64, hi: f64| -> Region {
        Region::from_predicate(&schema, &Predicate::between("t", lo, hi)).expect("region")
    };

    // Start with a lopsided synopsis: only the left third observed.
    let entries: Vec<(Region, Observation)> = (0..6)
        .map(|i| {
            let lo = i as f64 * 5.0;
            (
                region(lo, lo + 5.0),
                Observation::new(truth(lo, lo + 5.0), 0.05),
            )
        })
        .collect();
    let base = TrainedModel::fit(
        &schema,
        AggMode::Avg,
        &entries,
        KernelParams::constant(1, 20.0, 1.0),
        PriorMean::Constant(0.0),
        1e-9,
    )?;

    // Candidates: 20 ranges tiling the domain. Targets: a fine grid (what
    // future users might ask).
    let candidates: Vec<Region> = (0..20)
        .map(|i| region(i as f64 * 5.0, i as f64 * 5.0 + 5.0))
        .collect();
    let targets: Vec<Region> = (0..50)
        .map(|i| region(i as f64 * 2.0, i as f64 * 2.0 + 2.0))
        .collect();

    let ranked = rank_candidates(&base, &schema, &candidates, &targets, 0.05);
    println!("top-5 candidate ranges by expected variance reduction:");
    for c in ranked.iter().take(5) {
        let (lo, hi) = candidates[c.index].range(0).unwrap();
        println!("  [{lo:>5.1}, {hi:>5.1}]  score {:.4}", c.score);
    }

    // Plan a batch of 5 and "execute" them (observe the truth ± noise).
    let picks = plan_batch(&base, &schema, &candidates, &targets, 0.05, 5);
    let mut active = base.clone();
    for &i in &picks {
        let (lo, hi) = candidates[i].range(0).unwrap();
        active.absorb(
            &schema,
            &candidates[i],
            Observation::new(truth(lo, hi), 0.05),
        )?;
    }

    // Baseline: 5 random candidates.
    let mut random = base.clone();
    for _ in 0..5 {
        let i = rng.gen_range(0..candidates.len());
        let (lo, hi) = candidates[i].range(0).unwrap();
        random.absorb(
            &schema,
            &candidates[i],
            Observation::new(truth(lo, hi), 0.05),
        )?;
    }

    let avg_gamma = |m: &TrainedModel| -> f64 {
        targets
            .iter()
            .map(|t| m.posterior_cov(&schema, t, t).max(0.0).sqrt())
            .sum::<f64>()
            / targets.len() as f64
    };
    println!("\nmean posterior std over the target grid:");
    println!("  before proactive queries : {:.4}", avg_gamma(&base));
    println!("  after 5 random queries   : {:.4}", avg_gamma(&random));
    println!("  after 5 planned queries  : {:.4}", avg_gamma(&active));
    assert!(avg_gamma(&active) <= avg_gamma(&random) + 1e-9);
    println!("\nactively chosen queries teach the model more than random ones.");
    Ok(())
}
