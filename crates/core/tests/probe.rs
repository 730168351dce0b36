use oscache_core::{run_system, System};
use oscache_workloads::{build, BuildOptions, Workload};

#[test]
#[ignore]
fn probe() {
    for w in Workload::all() {
        let t = build(
            w,
            BuildOptions {
                scale: 0.3,
                seed: 0x05cac8e,
                ..Default::default()
            },
        );
        let r = run_system(&t, System::Base);
        let tot = r.stats.total();
        println!(
            "{:>10}: user reads {} misses {} ({:.1}%) | os reads {} misses {} ({:.1}%) | blk {} coh {} oth {}",
            w.name(),
            tot.dreads.user, tot.l1d_read_misses.user,
            100.0*tot.l1d_read_misses.user as f64 / tot.dreads.user as f64,
            tot.dreads.os, tot.l1d_read_misses.os,
            100.0*tot.l1d_read_misses.os as f64 / tot.dreads.os as f64,
            tot.os_miss_blockop, tot.os_miss_coherence.iter().sum::<u64>(), tot.os_miss_other,
        );
        println!("   displ in/out {}/{}  exec u/o {}/{}  imiss u/o {}/{} dread u/o {}/{} dwrite u/o {}/{} sync {} idle {}",
            tot.displ_inside, tot.displ_outside,
            tot.exec_cycles.user, tot.exec_cycles.os,
            tot.imiss_cycles.user, tot.imiss_cycles.os,
            tot.dread_cycles.user, tot.dread_cycles.os,
            tot.dwrite_cycles.user, tot.dwrite_cycles.os,
            tot.sync_cycles.total(), tot.idle_cycles);
    }
}
