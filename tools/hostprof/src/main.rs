//! hostprof — where the simulator's host time goes, by function and
//! line: the sampling profiler that sizes every host-performance change
//! to `clp-sim` (see the README, "Profiling the simulator").
//!
//! `hostprof <sizes> <reps>` runs every kernel of `suite::all()` through
//! `clp_core::run_compiled_observed` at each composition size, `reps`
//! times — unobserved, or with `--observe` under clp-prof and clp-trend
//! as the benchmark's `analysis` cells run —
//! while a CPU-time interval timer (`setitimer(ITIMER_PROF)`) raises
//! SIGPROF. The handler copies the interrupted stack, walks its
//! frame-pointer chain into a preallocated array and does nothing else —
//! nothing else is async-signal-safe. A sample interrupted outside the
//! binary (in libc's `malloc`, `free` or `memcpy`, built without frame
//! pointers) is charged to the in-binary code it returns to: the first
//! word above the stack pointer that points into the binary's text is
//! taken as the return address, and since the leaf may have reused the
//! frame-pointer register, the walk goes on from the first plausible
//! frame record above that word (see `walk::walk`). After the run the
//! addresses are made file-relative (the binary is a PIE), symbolised by one
//! `addr2line -f -i -C -a` process with inlined frames expanded, and
//! reported three ways: self time by the first in-repo frame (function
//! and line), inclusive time by function, and folded stacks. Above the
//! tables, the run's process CPU time (`CLOCK_PROCESS_CPUTIME_ID`, read
//! around the cell loop) is divided by the simulated cycles and by the
//! fired instructions: one run at 1 core and one at 32 show the fixed
//! per-cycle share against the per-instruction one.
//!
//! `hostprof setup <reps>` profiles the cold path instead, the one the
//! benchmark's `setup_s` times: `suite::all()`, then `compile_workload`
//! (compile and golden interpreter) and `lint_program` per kernel,
//! `reps` times over.
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

/// The stack walk of one sample, over a copy of the interrupted stack:
/// pure, so that it can be tested on synthetic stacks.
mod walk {
    use std::ops::Range;

    /// Return addresses kept per sample, above the interrupted PC.
    pub const MAX_DEPTH: usize = 24;
    /// The interrupted PC, then return addresses innermost first; the
    /// first 0 ends the stack.
    pub type Sample = [usize; 1 + MAX_DEPTH];

    /// How far above the stack pointer a sample outside the binary looks
    /// for a return address into it, in words.
    pub const SCAN_WORDS: usize = 1024;

    /// The farthest a frame record's saved frame pointer may point above
    /// the record, in bytes: a main thread's whole stack (8 MiB). The
    /// record of a frame called from outside the copy points past it.
    const MAX_FRAME: usize = 8 << 20;

    /// Walks a sample interrupted at `pc` with frame pointer `fp`:
    /// `stack` holds the words from the 8-aligned address `sp` up, and
    /// `text` is the binary's executable mapping. Writes the PC and the
    /// return addresses into `sample` and says whether the sample was
    /// charged through a leaf outside the binary.
    ///
    /// Such a leaf (libc's `malloc`, say) keeps no frame record and may
    /// have reused the frame-pointer register for anything, a heap
    /// address included. So the return address into the binary is the
    /// first word from `sp` up that points into `text`, and the
    /// frame-pointer walk resumes from the first plausible frame record
    /// above it: a word pointing further up the stack (a heap or libc
    /// address lies below it), followed by a return address into `text`.
    pub fn walk(
        pc: usize,
        fp: usize,
        sp: usize,
        stack: &[usize],
        text: &Range<usize>,
        sample: &mut Sample,
    ) -> bool {
        let end = sp + 8 * stack.len();
        // The word at `addr`, if it lies in the copy.
        let word = |addr: usize| {
            let in_copy = addr >= sp && addr.is_multiple_of(8) && addr + 8 <= end;
            in_copy.then(|| stack[(addr - sp) / 8])
        };
        sample[0] = pc;
        let mut slots = sample[1..].iter_mut();
        let (mut fp, mut floor) = (fp, sp);
        let charged = !text.contains(&pc);
        if charged {
            let scanned = &stack[..stack.len().min(SCAN_WORDS)];
            let Some(k) = scanned.iter().position(|w| text.contains(w)) else {
                return false;
            };
            if let Some(slot) = slots.next() {
                *slot = stack[k];
            }
            floor = sp + 8 * (k + 1);
            let record = |&at: &usize| {
                let caller = word(at).unwrap_or(0);
                let ret = word(at + 8).unwrap_or(0);
                let up = caller.wrapping_sub(at);
                up > 0 && up <= MAX_FRAME && caller.is_multiple_of(8) && text.contains(&ret)
            };
            let mut above = (k + 1..stack.len()).map(|j| sp + 8 * j);
            fp = above.find(record).unwrap_or(0);
        }
        for slot in slots {
            if fp < floor {
                break;
            }
            let (Some(caller_fp), Some(ret)) = (word(fp), word(fp + 8)) else {
                break;
            };
            if ret == 0 {
                break;
            }
            *slot = ret;
            floor = fp + 16;
            fp = caller_fp;
        }
        charged
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const TEXT: Range<usize> = 0x1000..0x9000;
        const SP: usize = 0x7fff_0000;
        const HEAP: usize = 0x5555_0000;

        /// The address of word `k` of the synthetic stack.
        fn at(k: usize) -> usize {
            SP + 8 * k
        }

        /// A stack interrupted in libc's `malloc` (PC outside the text)
        /// that reused the frame pointer for a heap address: below the
        /// return address into its caller sit malloc's own words (a heap
        /// pointer, a libc address); above it the caller's locals (another
        /// heap pointer, a code address with no stack word below it), then
        /// the caller's frame record, its caller's, and the end of the
        /// chain.
        fn stack() -> Vec<usize> {
            vec![
                HEAP + 0x40, // 0: malloc's spill
                0x7f00_1234, // 1: a libc address
                0x2345,      // 2: return into the caller of malloc
                HEAP + 0x80, // 3: a local
                0x4444,      // 4: a code address held in a local
                7,           // 5: a local
                at(8),       // 6: the caller's record: its caller's frame
                0x3456,      //    and the return into it
                at(10),      // 8: the next record up
                0x4567,      //
                0,           // 10: the end of the chain
                0,
            ]
        }

        #[test]
        fn a_libc_leaf_resumes_at_the_first_frame_record_above_its_return() {
            let mut sample = [0; 1 + MAX_DEPTH];
            let charged = walk(0x7f00_5678, HEAP, SP, &stack(), &TEXT, &mut sample);
            assert!(charged);
            assert_eq!(sample[..5], [0x7f00_5678, 0x2345, 0x3456, 0x4567, 0]);
        }

        #[test]
        fn an_in_binary_pc_walks_the_frame_pointer_chain() {
            let mut sample = [0; 1 + MAX_DEPTH];
            let charged = walk(0x1111, at(6), SP, &stack(), &TEXT, &mut sample);
            assert!(!charged);
            assert_eq!(sample[..4], [0x1111, 0x3456, 0x4567, 0]);
            // A frame pointer off the copied stack ends the walk at once.
            let mut sample = [0; 1 + MAX_DEPTH];
            let charged = walk(0x1111, HEAP, SP, &stack(), &TEXT, &mut sample);
            assert!(!charged);
            assert_eq!(sample[..2], [0x1111, 0]);
        }

        #[test]
        fn a_leaf_with_no_return_into_the_binary_keeps_its_pc_alone() {
            let mut sample = [0; 1 + MAX_DEPTH];
            let words = [HEAP, 0x7f00_1234, 0];
            assert!(!walk(0x7f00_5678, HEAP, SP, &words, &TEXT, &mut sample));
            assert_eq!(sample[..2], [0x7f00_5678, 0]);
        }
    }
}

/// The signal side: timer, handler, sample buffer.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::Relaxed};

    use super::walk::{walk, Sample, MAX_DEPTH};

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

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    /// CPU time this process has used, in nanoseconds: the clock the
    /// interval timer samples by.
    pub fn cpu_ns() -> u64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid `struct timespec` (two longs) the call
        // writes and nothing else holds.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }

    // All the handler touches. Relaxed is enough: each publishes no
    // other data to the handler (the buffer is allocated, and these
    // set, before the timer is armed on the only thread running).
    static SAMPLES: AtomicPtr<Sample> = AtomicPtr::new(std::ptr::null_mut());
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);
    /// The binary's executable mapping, `[TEXT_LO, TEXT_HI)`.
    static TEXT_LO: AtomicUsize = AtomicUsize::new(0);
    static TEXT_HI: AtomicUsize = AtomicUsize::new(0);
    /// Samples charged through libc to the in-binary code they return to.
    static CHARGED: AtomicUsize = AtomicUsize::new(0);

    /// The most of the interrupted stack a sample copies, in words (64
    /// KiB): the walk reads no further.
    const STACK_WORDS: usize = 8192;

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ucontext: *mut c_void) {
        let i = TAKEN.fetch_add(1, Relaxed);
        if i >= CAPACITY {
            return;
        }
        // SAFETY: the handler is installed with SA_SIGINFO, so the
        // kernel passes a valid `ucontext_t`; on x86-64 Linux its
        // general registers are 23 i64s at byte 40, and the three
        // indices are below 23.
        let (pc, fp, sp) = unsafe {
            let gregs = ucontext.cast::<u8>().add(GREGS).cast::<i64>();
            let reg = |r: usize| gregs.add(r).read() as usize;
            (reg(REG_RIP), reg(REG_RBP), reg(REG_RSP))
        };
        // Frames ascend from the interrupted stack pointer to `main`'s.
        let sp = sp.next_multiple_of(8);
        let top = STACK_TOP.load(Relaxed);
        let words = (top.saturating_sub(sp) / 8).min(STACK_WORDS);
        let mut stack = [0usize; STACK_WORDS];
        for (k, w) in stack[..words].iter_mut().enumerate() {
            // SAFETY: `sp + 8 * k` is 8-aligned and `[sp + 8 * k, sp + 8
            // * k + 8)` lies between the interrupted stack pointer and the
            // address of a local of `main`, on whose thread the profiled
            // run executes: live stack memory, whatever the words mean.
            *w = unsafe { ((sp + 8 * k) as *const usize).read() };
        }
        let text = TEXT_LO.load(Relaxed)..TEXT_HI.load(Relaxed);
        let mut sample: Sample = [0; 1 + MAX_DEPTH];
        if walk(pc, fp, sp, &stack[..words], &text, &mut sample) {
            CHARGED.fetch_add(1, Relaxed);
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
    /// `main`: the walk stops there. `text` is the binary's executable
    /// mapping.
    pub fn start(stack_top: usize, text: (usize, usize)) {
        let buf: &'static mut [Sample] = vec![[0; 1 + MAX_DEPTH]; CAPACITY].leak();
        SAMPLES.store(buf.as_mut_ptr(), Relaxed);
        STACK_TOP.store(stack_top, Relaxed);
        TEXT_LO.store(text.0, Relaxed);
        TEXT_HI.store(text.1, Relaxed);
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

    /// The samples so far charged through libc to the in-binary code
    /// they return to.
    pub fn charged() -> usize {
        CHARGED.load(Relaxed)
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
    use super::sampler;
    use super::walk::Sample;
    use clp_core::cli::{die, Flag, Spec};
    use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
    use clp_lint::{lint_program, LintConfig};
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
                 wide one); REPS is how many times the 26 kernels run at each. SIZES `setup`\n\
                 profiles the cold path instead: the suite build, then each kernel's compile,\n\
                 golden interpreter run and lint, REPS times. Build with\n\
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

    /// The executable's mappings `(start, end, executable)` from
    /// `/proc/self/maps`; the first one starts at the PIE load base.
    fn exe_mappings(exe: &str) -> Vec<(usize, usize, bool)> {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_else(|e| die(e));
        let ours = maps.lines().filter(|l| l.ends_with(exe));
        let range = |l: &str| {
            let mut fields = l.split_whitespace();
            let (lo, hi) = fields.next()?.split_once('-')?;
            let hex = |s| usize::from_str_radix(s, 16).ok();
            Some((hex(lo)?, hex(hi)?, fields.next()?.contains('x')))
        };
        ours.filter_map(range).collect()
    }

    /// The path of the running executable.
    fn exe_path() -> String {
        let exe = std::fs::read_link("/proc/self/exe").unwrap_or_else(|e| die(e));
        exe.to_string_lossy().into_owned()
    }

    /// The executable's text mapping: where a return address into the
    /// binary points.
    fn exe_text() -> (usize, usize) {
        let maps = exe_mappings(&exe_path());
        let text = maps.into_iter().find(|m| m.2);
        text.map_or((0, 0), |(lo, hi, _)| (lo, hi))
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
        let mut out = String::new();
        let mut stdout = child.stdout.take().expect("piped");
        let written = std::thread::scope(|s| {
            let writer = s.spawn(move || stdin.write_all(input.as_bytes()));
            stdout.read_to_string(&mut out).unwrap_or_else(|e| die(e));
            writer.join().expect("writer thread does not panic")
        });
        written.unwrap_or_else(|e| die(format!("addr2line closed its input: {e}")));
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

    /// The self-time row of the samples with no frame of this repository.
    const NO_FRAME: &str = "[no in-repo frame]";

    /// The `ROWS` largest rows of `counts` as samples, share, name.
    fn table(title: &str, counts: &BTreeMap<String, usize>, total: usize) -> String {
        let mut rows: Vec<(&String, &usize)> = counts.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let share = |n: usize| 100.0 * n as f64 / total as f64;
        let rows = rows.into_iter().take(ROWS);
        let rows = rows.map(|(name, &n)| format!("{n:>8} {:>6.2}%  {name}\n", share(n)));
        format!("\n{title}\n{}", rows.collect::<String>())
    }

    /// Samples `reps` passes of every suite kernel at each of `sizes`,
    /// compiled before the timer starts: the profile is of the runs.
    /// The headline and the samples.
    fn profile_cells(
        sizes: &[usize],
        reps: usize,
        obs: &ObsOptions,
        stack_top: usize,
    ) -> (String, &'static [Sample]) {
        let compiled: Vec<_> = clp_workloads::suite::all()
            .iter()
            .map(|w| compile_workload(w).unwrap_or_else(|e| die(format!("{}: {e:?}", w.name))))
            .collect();
        sampler::start(stack_top, exe_text());
        let (mut cycles, mut fired) = (0, 0);
        let t0 = sampler::cpu_ns();
        for _ in 0..reps {
            for cw in &compiled {
                for &n in sizes {
                    let cfg = ProcessorConfig::tflex(n);
                    let run = run_compiled_observed(cw, &cfg, obs);
                    let run =
                        run.unwrap_or_else(|e| die(format!("{}@{n}: {e:?}", cw.workload.name)));
                    cycles += run.stats.cycles;
                    fired += run.stats.procs.iter().map(|p| p.insts_fired).sum::<u64>();
                }
            }
        }
        let cpu_ns = sampler::cpu_ns() - t0;
        let (samples, dropped) = sampler::stop();
        let per = |n: u64| cpu_ns as f64 / n.max(1) as f64;
        let head = format!(
            "hostprof: sizes {sizes:?} x {reps} reps, {cycles} simulated cycles, {} Hz: \
             {} samples, {dropped} dropped\n\
             host CPU: {:.1} ms, {:.1} ns per simulated cycle, {:.1} ns per fired \
             instruction ({fired} fired)\n",
            sampler::HZ,
            samples.len(),
            cpu_ns as f64 / 1e6,
            per(cycles),
            per(fired),
        );
        (head, samples)
    }

    /// Samples `reps` rounds of the cold path `setup_s` times:
    /// `suite::all()`, then `compile_workload` and `lint_program` per
    /// kernel. The headline and the samples.
    fn profile_setup(reps: usize, stack_top: usize) -> (String, &'static [Sample]) {
        let cfg = LintConfig::default();
        sampler::start(stack_top, exe_text());
        let (mut kernels, mut diagnostics) = (0, 0);
        let t0 = sampler::cpu_ns();
        for _ in 0..reps {
            for w in &clp_workloads::suite::all() {
                let cw = compile_workload(w).unwrap_or_else(|e| die(format!("{}: {e:?}", w.name)));
                diagnostics += lint_program(&cw.edge, &cfg).diagnostics.len();
                kernels += 1;
            }
        }
        let cpu_ns = sampler::cpu_ns() - t0;
        let (samples, dropped) = sampler::stop();
        let head = format!(
            "hostprof: setup x {reps} reps, {kernels} kernels set up, {diagnostics} \
             diagnostics, {} Hz: {} samples, {dropped} dropped\n\
             host CPU: {:.1} ms, {:.1} us per kernel set-up, {:.3} ms per suite\n",
            sampler::HZ,
            samples.len(),
            cpu_ns as f64 / 1e6,
            cpu_ns as f64 / 1e3 / kernels.max(1) as f64,
            cpu_ns as f64 / 1e6 / reps.max(1) as f64,
        );
        (head, samples)
    }

    pub fn main() {
        let args = SPEC.parse_env();
        let reps: usize = args
            .positional(1)
            .and_then(|r| r.parse().ok())
            .unwrap_or_else(|| die("REPS wants a number"));
        // The frame walk stops at this local of `main`.
        let main_local = 0usize;
        let stack_top = std::ptr::addr_of!(main_local) as usize;
        let observe = args.switch("--observe");
        let (mut out, samples) = if args.positional(0) == Some("setup") {
            if observe {
                die("--observe observes simulated cells; `setup` runs none");
            }
            profile_setup(reps, stack_top)
        } else {
            let sizes: Vec<usize> = args
                .positional(0)
                .into_iter()
                .flat_map(|s| s.split(','))
                .map(|s| s.parse().unwrap_or_else(|_| die(format!("bad size `{s}`"))))
                .collect();
            let obs = ObsOptions {
                profile: observe,
                trend: observe.then(Default::default),
                ..ObsOptions::default()
            };
            profile_cells(&sizes, reps, &obs, stack_top)
        };

        // Program counters as they are; return addresses minus one, so
        // that they fall inside the call they return to.
        let exe = exe_path();
        let maps = exe_mappings(&exe);
        let base = maps.first().map_or(0, |m| m.0);
        let relative = |k: usize, addr: usize| {
            let inside = maps.iter().any(|&(lo, hi, _)| (lo..hi).contains(&addr));
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
            let own = own.unwrap_or(NO_FRAME.into());
            *by_line.entry(own).or_default() += 1;
            let funcs: BTreeSet<&str> = frames.iter().map(|f| f.func.as_str()).collect();
            for f in funcs {
                *by_func.entry(f.to_string()).or_default() += 1;
            }
            let path: Vec<&str> = frames.iter().rev().map(|f| f.func.as_str()).collect();
            *folded.entry(path.join(";")).or_default() += 1;
        }
        let total = samples.len().max(1);
        let share = |n: usize| 100.0 * n as f64 / total as f64;
        let charged = sampler::charged();
        let lost = by_line.get(NO_FRAME).copied().unwrap_or(0);
        out.push_str(&format!(
            "libc: {charged} samples ({:.2}%) charged through libc to the in-binary code \
             they return to; {lost} ({:.2}%) with {NO_FRAME}\n",
            share(charged),
            share(lost),
        ));
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
