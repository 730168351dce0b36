use oscache_kernel::Kernel;
use oscache_memsys::{Machine, MachineConfig};
use oscache_trace::{ChunkedTrace, CodeLayout, Mode, StreamBuilder, TraceMeta};
use oscache_workloads::{UserProc, UserPrograms};

#[test]
#[ignore]
fn user_only() {
    let mut code = CodeLayout::new();
    let k = Kernel::new(&mut code);
    let u = UserPrograms::new(&mut code, &k);
    let mut rng = oscache_trace::rng::SmallRng::seed_from_u64(1);
    for name in ["trfd", "arc2d", "cc1", "fsck", "shell"] {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::User);
        let mut p = UserProc::new(&k, 5);
        for _ in 0..20000 {
            match name {
                "trfd" => p.trfd_step(&mut b, &u.trfd),
                "arc2d" => p.arc2d_step(&mut b, &u.arc2d, &mut rng),
                "cc1" => p.cc1_step(&mut b, &u.cc1, &mut rng),
                "fsck" => p.fsck_step(&mut b, &u.fsck, &mut rng),
                _ => p.shell_step(&mut b, &u.shell, &mut rng),
            }
        }
        let mut t = ChunkedTrace::new(
            4,
            TraceMeta {
                workload: name.into(),
                code: code.clone(),
                vars: vec![],
                kernel_data: vec![],
            },
        );
        t.streams[0] = b.finish();
        let s = Machine::new(MachineConfig::base(), &t)
            .unwrap()
            .run()
            .unwrap();
        let tot = s.total();
        println!(
            "{name:>6}: reads {} misses {} rate {:.2}%",
            tot.dreads.user,
            tot.l1d_read_misses.user,
            100.0 * tot.l1d_read_misses.user as f64 / tot.dreads.user as f64
        );
    }
}
