//! The abstract's headline claim: "the misprediction rate can almost be
//! halved while the code size is increased by one third." Runs the full
//! profile → select → replicate → verify → re-measure pipeline on every
//! workload and prints before/after misprediction, size and the number
//! of branch sites whose machines shipped. Exits 1 if any workload's
//! pipeline fails.

use brepl::pipeline::{run_pipeline, PipelineConfig};
use brepl_bench::scale_from_env;
use brepl_workloads::all_workloads;

fn main() {
    let scale = scale_from_env();
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>8} {:>9}",
        "program", "events", "profile%", "replicated%", "size x", "shipped"
    );
    println!("{}", "-".repeat(68));

    let mut profile_sum = 0.0;
    let mut replicated_sum = 0.0;
    let mut size_sum = 0.0;
    let mut count = 0usize;
    let mut failed = false;

    // Whole pipelines fan out over the engine's workers; results come
    // back in workload order, bit-identical to a serial loop.
    let workloads = all_workloads(scale);
    let results = brepl::core::par_map(&workloads, |w| {
        run_pipeline(&w.module, &w.args, &w.input, PipelineConfig::default())
    });

    for (w, result) in workloads.iter().zip(results) {
        match result {
            Ok(r) => {
                println!(
                    "{:<12} {:>10} {:>11.2}% {:>11.2}% {:>7.2}x {:>9}",
                    w.name,
                    r.trace_events,
                    r.profile_misprediction_percent,
                    r.replicated_misprediction_percent,
                    r.size_growth,
                    r.replicated_sites.len()
                );
                profile_sum += r.profile_misprediction_percent;
                replicated_sum += r.replicated_misprediction_percent;
                size_sum += r.size_growth;
                count += 1;
            }
            Err(e) => {
                println!("{:<12} FAILED: {e}", w.name);
                failed = true;
            }
        }
    }

    if count > 0 {
        let n = count as f64;
        println!("{}", "-".repeat(68));
        println!(
            "{:<12} {:>10} {:>11.2}% {:>11.2}% {:>7.2}x",
            "average",
            "",
            profile_sum / n,
            replicated_sum / n,
            size_sum / n
        );
        println!(
            "\nmisprediction reduced by {:.0}% at {:.2}x average size \
             (paper: ~50% at ~1.33x)",
            100.0 * (profile_sum - replicated_sum) / profile_sum.max(1e-9),
            size_sum / n
        );
    }
    if failed {
        std::process::exit(1);
    }
}
