//! hostprof — where the simulator's host time goes, by function and
//! line: the sampling profiler that sizes every host-performance change
//! to `clp-sim` (see the README, "Profiling the simulator").
//!
//! `hostprof <sizes> <reps>` runs every kernel of `suite::all()` through
//! `clp_core::run_compiled_observed` at each composition size, `reps`
//! times — unobserved, or with `--observe` under clp-prof and clp-trend
//! as the benchmark's `analysis` cells run —
//! while a CPU-time interval timer (`setitimer(ITIMER_PROF)`) raises
//! SIGPROF. The handler stores the interrupted program counter and the
//! frame-pointer chain into a preallocated array and does nothing else —
//! nothing else is async-signal-safe. After the run the addresses are
//! made file-relative (the binary is a PIE), symbolised by one
//! `addr2line -f -i -C -a` process with inlined frames expanded, and
//! reported three ways: self time by the first in-repo frame (function
//! and line), inclusive time by function, and folded stacks.
//!
//! x86-64 Linux only: the handler reads RIP / RBP / RSP out of the
//! signal's `ucontext_t` at that ABI's offsets, and the walk needs
//! `-C force-frame-pointers=yes`.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!(
        "hostprof: x86-64 Linux only (it reads the signal ucontext and walks frame pointers)"
    );
    std::process::exit(2);
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    report::main();
}

/// The signal side: timer, handler, sample buffer.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::Relaxed};

    /// Return addresses kept per sample, above the interrupted PC.
    pub const MAX_DEPTH: usize = 24;
    /// The interrupted PC, then return addresses innermost first; the
    /// first 0 ends the stack.
    pub type Sample = [usize; 1 + MAX_DEPTH];

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs` in `ucontext_t`, and the
    /// indices of the registers the walk starts from.
    const GREGS: usize = 40;
    const REG_RBP: usize = 10;
    const REG_RSP: usize = 15;
    const REG_RIP: usize = 16;

    /// glibc's `struct sigaction` on x86-64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    // All the handler touches. Relaxed is enough: each publishes no
    // other data to the handler (the buffer is allocated, and these
    // set, before the timer is armed on the only thread running).
    static SAMPLES: AtomicPtr<Sample> = AtomicPtr::new(std::ptr::null_mut());
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ucontext: *mut c_void) {
        let i = TAKEN.fetch_add(1, Relaxed);
        if i >= CAPACITY {
            return;
        }
        // SAFETY: the handler is installed with SA_SIGINFO, so the
        // kernel passes a valid `ucontext_t`; on x86-64 Linux its
        // general registers are 23 i64s at byte 40, and the three
        // indices are below 23.
        let (pc, mut fp, sp) = unsafe {
            let gregs = ucontext.cast::<u8>().add(GREGS).cast::<i64>();
            let reg = |r: usize| gregs.add(r).read() as usize;
            (reg(REG_RIP), reg(REG_RBP), reg(REG_RSP))
        };
        let mut sample: Sample = [0; 1 + MAX_DEPTH];
        sample[0] = pc;
        // Frames ascend from the interrupted stack pointer to `main`'s.
        let (mut floor, top) = (sp, STACK_TOP.load(Relaxed));
        for slot in &mut sample[1..] {
            if fp < floor || fp % 8 != 0 || fp.saturating_add(16) > top {
                break;
            }
            // SAFETY: `fp` is 8-aligned and `[fp, fp + 16)` lies between
            // the interrupted stack pointer and the address of a local
            // of `main`, on whose thread the profiled run executes: live
            // stack memory, whatever the words there mean.
            let (caller_fp, ret) = unsafe {
                let frame = fp as *const usize;
                (frame.read(), frame.add(1).read())
            };
            if ret == 0 {
                break;
            }
            *slot = ret;
            floor = fp + 16;
            fp = caller_fp;
        }
        // SAFETY: `i < CAPACITY`, the length the buffer was allocated
        // with; `start` leaked it, so it outlives the timer; `fetch_add`
        // hands every index to one handler invocation only.
        unsafe { SAMPLES.load(Relaxed).add(i).write(sample) };
    }

    /// Samples per second of process CPU time: the kernel tick, which
    /// is as often as ITIMER_PROF fires however it is set.
    pub const HZ: usize = 250;
    /// An hour of CPU time is room enough (lazily zeroed: untouched
    /// pages cost nothing).
    const CAPACITY: usize = HZ * 3600;

    fn set_timer(usec: i64) {
        let tick = || Timeval { sec: 0, usec };
        let timer = Itimerval {
            interval: tick(),
            value: tick(),
        };
        // SAFETY: `timer` is a valid `struct itimerval` (two timevals of
        // two longs each) and the old value is not asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF)");
    }

    /// Starts sampling. `stack_top` is the address of a local of
    /// `main`: the walk stops there.
    pub fn start(stack_top: usize) {
        let buf: &'static mut [Sample] = vec![[0; 1 + MAX_DEPTH]; CAPACITY].leak();
        SAMPLES.store(buf.as_mut_ptr(), Relaxed);
        STACK_TOP.store(stack_top, Relaxed);
        let handler: extern "C" fn(i32, *mut c_void, *mut c_void) = on_sigprof;
        let act = SigAction {
            handler: handler as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` has glibc's x86-64 `struct sigaction` layout
        // (handler, 1024-bit mask, flags, restorer) and names a handler
        // of the three-argument SA_SIGINFO signature that only touches
        // the statics above and its own stack.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF)");
        set_timer(1_000_000 / HZ as i64);
    }

    /// Stops the timer and returns the samples kept and the number
    /// dropped for want of room.
    pub fn stop() -> (&'static [Sample], usize) {
        set_timer(0);
        let taken = TAKEN.load(Relaxed);
        let kept = taken.min(CAPACITY);
        // SAFETY: the buffer is `CAPACITY >= kept` samples, leaked by
        // `start`; the timer is disarmed and the profiled run was this
        // thread's, so no handler writes it any more.
        let samples = unsafe { std::slice::from_raw_parts(SAMPLES.load(Relaxed), kept) };
        (samples, taken - kept)
    }
}

/// The reporting side: run, symbolise, print.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod report {
    use super::sampler::{self, Sample};
    use clp_core::cli::{die, Flag, Spec};
    use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
    use std::collections::{BTreeMap, BTreeSet};
    use std::io::{ErrorKind, Read, Write};
    use std::process::{Command, Stdio};

    const SPEC: Spec = Spec {
        prog: "hostprof",
        about: "sample the simulator's host CPU time over the whole suite and say where it goes",
        positionals: &["SIZES", "REPS"],
        flags: &[
            Flag::value(
                "--folded",
                "FILE",
                "also write folded stacks (flamegraph input)",
            ),
            Flag::switch(
                "--observe",
                "run every cell with clp-prof and clp-trend on, as `analysis` does",
            ),
        ],
        epilog: "SIZES is a comma list of composition sizes (1,2 is the narrow sweep, 16,32 the\n\
                 wide one); REPS is how many times the 26 kernels run at each. Build with\n\
                 RUSTFLAGS=\"-C force-frame-pointers=yes\"; needs addr2line on the PATH.",
    };

    /// One (possibly inlined) function at an address.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Frame {
        func: String,
        /// `file:line` as addr2line prints it.
        at: String,
    }

    impl Frame {
        /// Where the repository-relative path starts in `at`, if the
        /// frame is this repository's code (not `std`, not a vendored
        /// dependency).
        fn in_repo(&self) -> Option<usize> {
            let dirs = ["/crates/", "/tools/hostprof/"];
            dirs.iter().find_map(|d| self.at.find(d)).map(|i| i + 1)
        }
    }

    /// The executable's mappings `(start, end)` from `/proc/self/maps`;
    /// the first one starts at the PIE load base.
    fn exe_mappings(exe: &str) -> Vec<(usize, usize)> {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_else(|e| die(e));
        let ours = maps.lines().filter(|l| l.ends_with(exe));
        let range = |l: &str| {
            let (lo, hi) = l.split_whitespace().next()?.split_once('-')?;
            let hex = |s| usize::from_str_radix(s, 16).ok();
            Some((hex(lo)?, hex(hi)?))
        };
        ours.filter_map(range).collect()
    }

    /// Symbolises file-relative addresses of `exe` with one `addr2line`
    /// process: per address its frames, innermost inlined function
    /// first.
    fn symbolise(exe: &str, addrs: &BTreeSet<usize>) -> BTreeMap<usize, Vec<Frame>> {
        let mut child = Command::new("addr2line")
            .args(["-f", "-i", "-C", "-a", "-e", exe])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| die(format!("cannot run addr2line: {e}")));
        // Written from a second thread: addr2line answers as it reads,
        // and both pipes are finite.
        let mut stdin = child.stdin.take().expect("piped");
        let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let mut out = String::new();
        let mut stdout = child.stdout.take().expect("piped");
        stdout.read_to_string(&mut out).unwrap_or_else(|e| die(e));
        writer
            .join()
            .expect("writer thread does not panic")
            .unwrap_or_else(|e| die(format!("addr2line closed its input: {e}")));
        child.wait().unwrap_or_else(|e| die(e));
        // `-a` heads each answer with the address; function / file:line
        // line pairs follow, one pair per inlining level.
        let mut symbols: BTreeMap<usize, Vec<Frame>> = BTreeMap::new();
        let (mut lines, mut at) = (out.lines(), None);
        while let Some(line) = lines.next() {
            if let Some(hex) = line.strip_prefix("0x") {
                at = usize::from_str_radix(hex, 16).ok();
                continue;
            }
            let (Some(addr), Some(place)) = (at, lines.next()) else {
                break;
            };
            // Rust symbols end in a hash; lines may carry a discriminator.
            let func = match line.rsplit_once("::h") {
                Some((path, hash)) if hash.len() == 16 => path,
                _ => line,
            };
            let place = place.split(" (").next().unwrap_or(place);
            symbols.entry(addr).or_default().push(Frame {
                func: func.to_string(),
                at: place.to_string(),
            });
        }
        symbols
    }

    /// Rows per table; the folded stacks hold the rest.
    const ROWS: usize = 40;

    /// The `ROWS` largest rows of `counts` as samples, share, name.
    fn table(title: &str, counts: &BTreeMap<String, usize>, total: usize) -> String {
        let mut rows: Vec<(&String, &usize)> = counts.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let share = |n: usize| 100.0 * n as f64 / total as f64;
        let rows = rows.into_iter().take(ROWS);
        let rows = rows.map(|(name, &n)| format!("{n:>8} {:>6.2}%  {name}\n", share(n)));
        format!("\n{title}\n{}", rows.collect::<String>())
    }

    pub fn main() {
        let args = SPEC.parse_env();
        let sizes: Vec<usize> = args
            .positional(0)
            .into_iter()
            .flat_map(|s| s.split(','))
            .map(|s| s.parse().unwrap_or_else(|_| die(format!("bad size `{s}`"))))
            .collect();
        let reps: usize = args
            .positional(1)
            .and_then(|r| r.parse().ok())
            .unwrap_or_else(|| die("REPS wants a number"));
        let observe = args.switch("--observe");
        let obs = ObsOptions {
            profile: observe,
            trend: observe.then(Default::default),
            ..ObsOptions::default()
        };

        // Compile before the timer starts: the profile is of the runs.
        let compiled: Vec<_> = clp_workloads::suite::all()
            .iter()
            .map(|w| compile_workload(w).unwrap_or_else(|e| die(format!("{}: {e:?}", w.name))))
            .collect();
        let stack_top = 0usize;
        sampler::start(std::ptr::addr_of!(stack_top) as usize);
        let mut cycles = 0;
        for _ in 0..reps {
            for cw in &compiled {
                for &n in &sizes {
                    let cfg = ProcessorConfig::tflex(n);
                    let run = run_compiled_observed(cw, &cfg, &obs);
                    let run =
                        run.unwrap_or_else(|e| die(format!("{}@{n}: {e:?}", cw.workload.name)));
                    cycles += run.stats.cycles;
                }
            }
        }
        let (samples, dropped) = sampler::stop();
        let mut out = format!(
            "hostprof: sizes {sizes:?} x {reps} reps, {cycles} simulated cycles, {} Hz: \
             {} samples, {dropped} dropped\n",
            sampler::HZ,
            samples.len()
        );

        // Program counters as they are; return addresses minus one, so
        // that they fall inside the call they return to.
        let exe = std::fs::read_link("/proc/self/exe").unwrap_or_else(|e| die(e));
        let exe = exe.to_string_lossy();
        let maps = exe_mappings(&exe);
        let base = maps.first().map_or(0, |m| m.0);
        let relative = |k: usize, addr: usize| {
            let inside = maps.iter().any(|&(lo, hi)| (lo..hi).contains(&addr));
            inside.then(|| addr - usize::from(k > 0) - base)
        };
        let stack = |s: &'static Sample| {
            let live = s.iter().enumerate().take_while(|&(k, &a)| k == 0 || a != 0);
            live.map(move |(k, &a)| relative(k, a))
        };
        let addrs: BTreeSet<usize> = samples.iter().flat_map(stack).flatten().collect();
        let symbols = symbolise(&exe, &addrs);
        let outside = [Frame {
            func: "[outside the binary]".into(),
            at: "??:0".into(),
        }];

        let mut by_line: BTreeMap<String, usize> = BTreeMap::new();
        let mut by_func: BTreeMap<String, usize> = BTreeMap::new();
        let mut folded: BTreeMap<String, usize> = BTreeMap::new();
        for s in samples {
            // The whole stack, innermost first, inlined frames expanded.
            let frames: Vec<&Frame> = stack(s)
                .flat_map(|a| {
                    a.and_then(|a| symbols.get(&a))
                        .map_or(&outside[..], |f| &f[..])
                })
                .collect();
            let own = frames.iter().find_map(|f| Some((f, f.in_repo()?)));
            let own = own.map(|(f, path)| format!("{}  {}", f.func, &f.at[path..]));
            let own = own.unwrap_or("[no in-repo frame]".into());
            *by_line.entry(own).or_default() += 1;
            let funcs: BTreeSet<&str> = frames.iter().map(|f| f.func.as_str()).collect();
            for f in funcs {
                *by_func.entry(f.to_string()).or_default() += 1;
            }
            let path: Vec<&str> = frames.iter().rev().map(|f| f.func.as_str()).collect();
            *folded.entry(path.join(";")).or_default() += 1;
        }
        let total = samples.len().max(1);
        let title = "self time by first in-repo frame (function  file:line)";
        out.push_str(&table(title, &by_line, total));
        out.push_str(&table("inclusive time by function", &by_func, total));
        if let Some(path) = args.text("--folded") {
            let text: String = folded.iter().map(|(k, n)| format!("{k} {n}\n")).collect();
            std::fs::write(&path, text)
                .unwrap_or_else(|e| die(format!("cannot write `{path}`: {e}")));
            out.push_str(&format!("\nfolded stacks: {path}\n"));
        }
        // A reader that stops early (`| head`) is not an error.
        match std::io::stdout().write_all(out.as_bytes()) {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => die(e),
            _ => {}
        }
    }
}
