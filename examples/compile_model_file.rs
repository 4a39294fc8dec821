//! The full toolflow (§II-B), end to end: parse a textual model
//! description into the graph IR, fuse it, row-shard any layer over the
//! per-device budget, partition and lower every segment to ISA binaries,
//! pin the segments and serve them with a host scatter/gather —
//! validating against the IR's own host evaluator and, bit for bit,
//! against the same graph compiled whole.
//!
//! Run with: `cargo run --release --example compile_model_file`

use brainwave::bfp::BfpFormat;
use brainwave::core::NpuConfig;
use brainwave::gir::{fuse, parse_model, LowerOptions, ModelArtifact, ShardedArtifact};

const MODEL: &str = "\
# a text-classification head: wide encoder, two hidden layers, softmax
input 64
dense 96 tanh seed=11
dense 96 relu seed=12
dense 32 relu seed=13
dense 8 seed=14
cpu softmax
output
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("model description:\n{MODEL}");

    // 1. Import.
    let graph = parse_model(MODEL)?;
    println!(
        "parsed: {} IR nodes, output dims {:?}",
        graph.nodes().len(),
        graph.output_dims()
    );

    // 2. Fuse.
    let pipeline = fuse(&graph)?;
    println!(
        "fused into {} stages ({} accelerable)",
        pipeline.stages.len(),
        pipeline.stages.iter().filter(|s| s.accelerable()).count()
    );

    // 3. Shard, partition and lower under a deliberately tight on-chip
    //    budget so the model needs several devices (the paper's
    //    capacity-driven multi-FPGA case, §II-B). Every device is its own
    //    pin-able one-NPU artifact; the oversized layer becomes a
    //    scatter/gather segment of row shards.
    let config = |mrf_entries| {
        NpuConfig::builder()
            .name("toolflow-node")
            .native_dim(16)
            .lanes(8)
            .tile_engines(2)
            .mrf_entries(mrf_entries)
            .vrf_entries(128)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
    };
    let budget = 7_000u64; // parameters per device
    let opts = LowerOptions::default();
    let sharded = ShardedArtifact::compile("classifier", &graph, budget, &config(64)?, &opts)?;
    for (stage, shards) in &sharded.report().splits {
        println!("stage {stage} exceeded the {budget}-parameter budget: row-sharded {shards} ways");
    }
    println!("{} segments:", sharded.segments().len());
    for segment in sharded.segments() {
        println!("  width {}:", segment.width());
        for member in segment.members() {
            if let Some(bin) = member.binary() {
                println!(
                    "    {} on one NPU: {} -> {}, {} MRF tiles, {} chains",
                    member.name(),
                    bin.input_dim,
                    bin.output_dim,
                    bin.mrf_entries,
                    bin.program.chain_count()
                );
            }
        }
    }

    // 4. Pin every member and serve: each member of a segment reads the
    //    same input, and their outputs concatenate in member order.
    let x: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.17).sin() * 0.5).collect();
    let mut scores = x.clone();
    let mut cycles = 0;
    for segment in sharded.segments() {
        let mut gathered = Vec::new();
        for member in segment.members() {
            let (y, stats) = member.pin()?.infer_with_stats(&scores)?;
            cycles += stats.cycles;
            gathered.extend(y);
        }
        scores = gathered;
    }
    let reference = graph.evaluate(&x)?;
    println!("\nscores (NPU)      : {scores:.4?}");
    println!("scores (reference): {reference:.4?}");
    let worst = scores
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("max deviation {worst:.4}; accelerator cycles across members: {cycles}");
    assert!(worst < 0.05, "quantized serving must track the reference");

    // Row sharding changes where a row is computed, never its bits: the
    // graph compiled whole, on a device whose MRF holds every weight,
    // answers identically.
    let whole = ModelArtifact::compile("whole", &graph, 1 << 20, &config(128)?, &opts)?;
    assert_eq!(scores, whole.pin()?.infer(&x)?, "sharded must match whole");
    println!("bit-identical to the model compiled whole on one device");
    println!("\nOK: checkpoint-to-microservice, the §II-B pipeline in one run.");
    Ok(())
}
