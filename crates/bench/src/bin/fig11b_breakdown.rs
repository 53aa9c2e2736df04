//! **Figure 11b** — component wall-time breakdown: graph updating
//! engine (UpdEng), computing engine (CmpEng), concurrency control
//! (CC), scheduler (Sched), history store (HisStore), WAL, and the
//! session/queue tier standing in for the paper's network layer.
//!
//! Paper averages: UpdEng 36.4%, CmpEng 29.2%, WAL 14.0%, network
//! 11.1%, HisStore 5.7%, CC+Sched 3.6%.
//!
//! The safe path's UpdEng and CC figures are sampled: each thread times
//! 1 in 64 of its safe classifications and applications and scales the
//! span by 64 (see `EngineStats`), so they are estimates of the same
//! sums. The unsafe path, and CmpEng with it, is timed exactly.

use std::sync::atomic::Ordering;

use risgraph_bench::drivers::{algorithm, needs_weights, ALGORITHMS};
use risgraph_bench::{print_table, scale, threads};
use risgraph_core::server::ServerConfig;
use risgraph_workloads::StreamConfig;

fn main() {
    let spec = risgraph_workloads::datasets::by_abbr("TT").unwrap();
    println!(
        "Figure 11b: execution-time breakdown on the {} stand-in (all modules on)\n",
        spec.name
    );
    let dir = std::env::temp_dir().join("risgraph-bench-wal");
    std::fs::create_dir_all(&dir).ok();

    let mut rows = Vec::new();
    for alg_name in ALGORITHMS {
        let data = spec.generate(scale(), if needs_weights(alg_name) { 1000 } else { 0 });
        let stream = StreamConfig::default().build(&data.edges);
        let take = stream.updates.len().min(40_000);

        let wal_path = dir.join(format!("breakdown-{alg_name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal_path);
        let mut config = ServerConfig::default();
        config.engine.threads = threads();
        config.wal_path = Some(wal_path.clone());
        config.enable_history = true;

        let server: std::sync::Arc<risgraph_core::server::Server> = std::sync::Arc::new(
            risgraph_core::server::Server::start(
                vec![algorithm(alg_name, data.root)],
                data.num_vertices,
                config,
            )
            .unwrap(),
        );
        server.load_edges(&stream.preload);
        let sessions = threads() * 4;
        let shards: Vec<Vec<risgraph_common::ids::Update>> = (0..sessions)
            .map(|s| {
                stream.updates[..take]
                    .iter()
                    .skip(s)
                    .step_by(sessions)
                    .copied()
                    .collect()
            })
            .collect();
        let mut handles = Vec::new();
        for shard in shards {
            let server = std::sync::Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let session = server.session();
                for u in shard {
                    use risgraph_common::ids::Update::*;
                    let _ = match u {
                        InsEdge(e) => session.ins_edge(e),
                        DelEdge(e) => session.del_edge(e),
                        InsVertex(v) => session.ins_vertex(v),
                        DelVertex(v) => session.del_vertex(v),
                    };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let es = server.engine().stats();
        let ss = server.stats();
        let upd = es.update_ns.load(Ordering::Relaxed) as f64;
        let cmp = es.compute_ns.load(Ordering::Relaxed) as f64;
        let cc = es.classify_ns.load(Ordering::Relaxed) as f64;
        let sched = ss.sched_ns.load(Ordering::Relaxed) as f64
            - cc.min(ss.sched_ns.load(Ordering::Relaxed) as f64);
        let hist = ss.history_ns.load(Ordering::Relaxed) as f64;
        let wal = ss.wal_ns.load(Ordering::Relaxed) as f64;
        // The queue tier (session channel waiting + epoch residency)
        // stands in for the paper's network component. It accumulates
        // concurrently across sessions, so divide by the session count
        // to approximate its share of coordinator wall time.
        let net = ss.queue_ns.load(Ordering::Relaxed) as f64 / sessions as f64;
        let total = upd + cmp + cc + sched + hist + wal + net;
        let pct = |x: f64| format!("{:.1}%", 100.0 * x / total.max(1.0));
        rows.push(vec![
            alg_name.to_string(),
            pct(upd),
            pct(cmp),
            pct(cc),
            pct(sched),
            pct(hist),
            pct(wal),
            pct(net),
        ]);
        let s = std::sync::Arc::try_unwrap(server).ok().unwrap();
        s.shutdown();
        let _ = std::fs::remove_file(&wal_path);
    }
    print_table(
        &[
            "algo",
            "UpdEng",
            "CmpEng",
            "CC",
            "Sched",
            "HisStore",
            "WAL",
            "Net/Queue",
        ],
        &rows,
    );
    println!(
        "\nPaper averages: UpdEng 36.4%, CmpEng 29.2%, WAL 14.0%, network 11.1%,\n\
         HisStore 5.7%, CC+Sched 3.6%. Expect the same ordering: the two engines\n\
         dominate, CC and the scheduler are negligible."
    );
}
