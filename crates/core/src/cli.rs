//! The one command-line front door of the workspace's tools.
//!
//! A tool declares its flags and positionals as data (a [`Spec`]); this
//! module owns everything else: tokenising `argv`, the unknown-flag /
//! missing-value / unparsable-value errors (one message format, exit
//! code 2), typed lookups with range checks, the `WORKLOAD [CORES] |
//! --suite` selector, and the `--help` text, which is *generated* from
//! the table and therefore cannot drift from what the tool accepts.
//!
//! ```
//! use clp_core::cli::{Flag, Spec};
//!
//! const SPEC: Spec = Spec {
//!     prog: "demo",
//!     about: "shows the flag table",
//!     positionals: &["WORKLOAD", "[CORES]"],
//!     flags: &[
//!         Flag::switch("--json", "emit JSON"),
//!         Flag::value("--period", "CYCLES", "interval width (default 1000)"),
//!     ],
//!     epilog: "",
//! };
//! let args = SPEC.parse(["conv", "--period", "500"].map(String::from)).unwrap();
//! assert_eq!(args.positional(0), Some("conv"));
//! assert_eq!(args.num::<u64>("--period", 1..).unwrap(), Some(500));
//! assert!(!args.switch("--json"));
//! assert!(SPEC.parse(["conv", "--nope"].map(String::from)).is_err());
//! ```
//!
//! [`Spec::parse`] and the lookups return `Result`s, so they are
//! unit-testable; a tool's `main` unwraps them with [`or_die`]. Only
//! [`Spec::parse_env`], [`or_die`] and [`die`] exit.

use clp_workloads::{suite, Workload};
use serde_json::Value;
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

/// One flag of a tool.
pub struct Flag {
    /// The flag as typed, e.g. `--cores`.
    pub name: &'static str,
    /// Metavariable of the value the flag takes; `None` for a switch.
    pub value: Option<&'static str>,
    /// Whether every occurrence is kept; otherwise the last one wins.
    pub repeat: bool,
    /// One-line description for `--help`.
    pub help: &'static str,
}

impl Flag {
    const fn new(
        name: &'static str,
        value: Option<&'static str>,
        repeat: bool,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            value,
            repeat,
            help,
        }
    }

    /// A flag that takes no value.
    #[must_use]
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, None, false, help)
    }

    /// A flag that takes one value; given twice, the last one wins.
    #[must_use]
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Some(metavar), false, help)
    }

    /// A flag that takes one value per occurrence and keeps them all.
    #[must_use]
    pub const fn repeated(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Some(metavar), true, help)
    }
}

/// `--suite`, as every tool with the workload selector spells it.
pub const SUITE: Flag = Flag::switch("--suite", "run every built-in workload");

/// Why [`Spec::parse`] or a typed lookup did not produce a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was asked for; the payload is the generated text.
    Help(String),
    /// The arguments are unusable; the payload says why.
    Usage(String),
}

fn usage<T>(msg: String) -> Result<T, CliError> {
    Err(CliError::Usage(msg))
}

/// A tool's command line, declared as data.
pub struct Spec<'a> {
    /// The binary's name, for the usage line.
    pub prog: &'a str,
    /// One line on what the tool does, for `--help`.
    pub about: &'a str,
    /// Positional arguments in order, spelled as the usage line shows
    /// them: `NAME` is required, `[NAME]` optional, and a trailing
    /// `...` lets the last one repeat.
    pub positionals: &'a [&'a str],
    /// The flags the tool accepts (`--help` is implied).
    pub flags: &'a [Flag],
    /// Free text appended to `--help` (may be empty).
    pub epilog: &'a str,
}

impl Spec<'_> {
    /// The `--help` text: the usage line, the about line, one row per
    /// declared flag, then the epilog.
    #[must_use]
    pub fn help(&self) -> String {
        let flags = if self.flags.is_empty() {
            ""
        } else {
            " [flags]"
        };
        let positionals: String = self.positionals.iter().map(|p| format!(" {p}")).collect();
        let mut out = format!(
            "usage: {}{flags}{positionals}\n\n{}\n",
            self.prog, self.about
        );
        if !self.flags.is_empty() {
            out.push_str("\nflags:\n");
        }
        for f in self.flags {
            let left = format!("{} {}", f.name, f.value.unwrap_or(""));
            let repeat = if f.repeat { " (repeatable)" } else { "" };
            out.push_str(&format!("  {left:<24} {}{repeat}\n", f.help));
        }
        if !self.epilog.is_empty() {
            out.push_str(&format!("\n{}\n", self.epilog.trim_end()));
        }
        out
    }

    /// Tokenises `argv` (without the program name) against the table.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`/`-h`; [`CliError::Usage`] on an
    /// unknown flag, a value flag at the end of the line, or too few or
    /// too many positionals.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(tok) = argv.next() {
            if tok == "--help" || tok == "-h" {
                return Err(CliError::Help(self.help()));
            }
            if tok.len() > 1 && tok.starts_with('-') {
                let Some(flag) = self.flags.iter().find(|f| f.name == tok) else {
                    return usage(format!("unknown flag `{tok}`"));
                };
                let value = match flag.value.map(|metavar| (metavar, argv.next())) {
                    None => String::new(),
                    Some((_, Some(value))) => value,
                    Some((metavar, None)) => {
                        return usage(format!("{tok} wants a value ({metavar})"));
                    }
                };
                if !flag.repeat {
                    args.flags.retain(|(name, _)| *name != flag.name);
                }
                args.flags.push((flag.name, value));
            } else {
                args.positionals.push(tok);
            }
        }
        let mut required = self.positionals.iter().filter(|p| !p.starts_with('['));
        if let Some(missing) = required.nth(args.positionals.len()) {
            return usage(format!("missing {missing}"));
        }
        let variadic = self.positionals.last().is_some_and(|p| p.contains("..."));
        match args.positionals.get(self.positionals.len()) {
            Some(extra) if !variadic => usage(format!("unexpected argument `{extra}`")),
            _ => Ok(args),
        }
    }

    /// Parses the process arguments; `--help` and errors end in
    /// [`or_die`].
    #[must_use]
    pub fn parse_env(&self) -> Args {
        or_die(self.parse(std::env::args().skip(1)))
    }
}

/// The parsed command line: flag occurrences in `argv` order (only the
/// last one of a non-repeatable flag) and the positionals.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

/// Parses `text` as a `T` inside `range`; `what` names it in the error.
fn checked<T>(what: &str, text: &str, range: &impl RangeBounds<T>) -> Result<T, CliError>
where
    T: FromStr + PartialOrd + Display,
{
    match text.parse::<T>() {
        Ok(v) if range.contains(&v) => Ok(v),
        _ => {
            let mut want = String::new();
            if let Bound::Included(lo) = range.start_bound() {
                want = format!(" >= {lo}");
            }
            if let Bound::Included(hi) = range.end_bound() {
                want.push_str(&format!(" <= {hi}"));
            }
            usage(format!("{what} wants a number{want}, got `{text}`"))
        }
    }
}

impl Args {
    /// Every value given for `name`, in `argv` order.
    pub fn texts<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        let named = self.flags.iter().filter(move |(n, _)| *n == name);
        named.map(|(_, v)| v.as_str())
    }

    /// Whether the switch `name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.texts(name).next().is_some()
    }

    /// The (last) value given for `name`.
    #[must_use]
    pub fn text(&self, name: &str) -> Option<String> {
        self.texts(name).last().map(String::from)
    }

    /// The (last) value of `name` as a number inside `range`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when it does not parse or is out of range.
    pub fn num<T>(&self, name: &str, range: impl RangeBounds<T>) -> Result<Option<T>, CliError>
    where
        T: FromStr + PartialOrd + Display,
    {
        let last = self.texts(name).last();
        last.map(|v| checked(name, v, &range)).transpose()
    }

    /// Every value of `name`, each a comma list of numbers inside
    /// `range`, flattened.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on the first item (an empty one included)
    /// that does not parse or is out of range.
    pub fn nums<T>(&self, name: &str, range: impl RangeBounds<T>) -> Result<Vec<T>, CliError>
    where
        T: FromStr + PartialOrd + Display,
    {
        let items = self.texts(name).flat_map(|v| v.split(','));
        items.map(|item| checked(name, item, &range)).collect()
    }

    /// Every value of `name` as a comma list of strings, flattened,
    /// empty items dropped.
    #[must_use]
    pub fn list(&self, name: &str) -> Vec<String> {
        let items = self.texts(name).flat_map(|v| v.split(','));
        items.filter(|s| !s.is_empty()).map(String::from).collect()
    }

    /// Every value of `name` as an `A@B` pair of integers (clp-serve's
    /// `JOB@CYCLE`).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on a value that is not two integers around
    /// an `@`.
    pub fn pairs(&self, name: &str) -> Result<Vec<(u64, u64)>, CliError> {
        let pair = |v: &str| {
            let (a, b) = v.split_once('@')?;
            Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
        };
        self.texts(name)
            .map(|v| pair(v).map_or_else(|| usage(format!("{name} wants A@B, got `{v}`")), Ok))
            .collect()
    }

    /// The positional arguments.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The `i`-th positional argument.
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The composition size of a `WORKLOAD [CORES]` tool: the second
    /// positional if given, else `--cores`, both held to `>= 1`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the count does not parse or is zero.
    pub fn cores(&self) -> Result<Option<usize>, CliError> {
        match self.positional(1) {
            Some(v) => checked("the core count", v, &(1..)).map(Some),
            None => self.num("--cores", 1..),
        }
    }

    /// The workload selector `WORKLOAD | --suite`: the first positional
    /// names one built-in workload, [`SUITE`] selects all of them.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when both or neither are given, or the name
    /// is unknown.
    pub fn workloads(&self) -> Result<Vec<Workload>, CliError> {
        match (self.positional(0), self.switch(SUITE.name)) {
            (Some(_), true) => usage("pass a workload name or --suite, not both".into()),
            (Some(name), false) => Ok(vec![workload(name)?]),
            (None, true) => Ok(suite::all()),
            (None, false) => usage("pass a workload name or --suite".into()),
        }
    }
}

/// Looks a built-in workload up by name.
///
/// # Errors
///
/// [`CliError::Usage`] naming the available workloads.
pub fn workload(name: &str) -> Result<Workload, CliError> {
    suite::by_name(name).map_or_else(
        || {
            let names: Vec<&str> = suite::all().into_iter().map(|w| w.name).collect();
            usage(format!(
                "unknown workload `{name}`; available: {}",
                names.join(", ")
            ))
        },
        Ok,
    )
}

/// Unwraps a parse or lookup result in a tool's `main`: `--help` prints
/// its text and exits 0, a usage error [`die`]s (exit 2).
pub fn or_die<T>(result: Result<T, CliError>) -> T {
    match result {
        Ok(value) => value,
        Err(CliError::Help(text)) => {
            print!("{text}");
            std::process::exit(0);
        }
        Err(CliError::Usage(msg)) => die(format!("{msg} (--help for usage)")),
    }
}

/// Writes `text` to stdout, as `print!` does. A reader that stops early
/// (`| head`) is not an error: the tool exits 0 quietly instead of
/// panicking on the closed pipe.
pub fn out(text: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    match std::io::stdout().lock().write_fmt(text) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => die(format!("cannot write to stdout: {e}")),
        Ok(()) => {}
    }
}

/// Prints `<tool>: <msg>` to stderr and exits 2 — the usage / bad-input
/// exit of every tool. The tool's name is the running binary's.
pub fn die(msg: impl Display) -> ! {
    eprintln!("{}: {msg}", prog());
    std::process::exit(2);
}

/// The running binary's name.
fn prog() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let prog = std::path::Path::new(&argv0).file_stem();
    prog.map_or("clp".into(), |s| s.to_string_lossy().into_owned())
}

/// Reads and parses a JSON document, [`die`]-ing if it cannot.
#[must_use]
pub fn read_json(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read `{path}`: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| die(format!("cannot parse `{path}`: {e}")))
}

/// Writes `contents` to `path`, [`die`]-ing if that fails. Tools write
/// `""` to their output paths up front, to fail on an unwritable one
/// before a long run, not after it.
pub fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        die(format!("cannot write `{path}`: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TOOL: Spec = Spec {
        prog: "tool",
        about: "a tool for the tests",
        positionals: &["[WORKLOAD]", "[CORES]"],
        flags: &[
            SUITE,
            Flag::switch("--json", "emit JSON"),
            Flag::value("--cores", "N", "composition size"),
            Flag::value("--period", "CYCLES", "interval width"),
            Flag::value("--threshold", "PCT", "allowed drift"),
            Flag::repeated("--kill-core", "JOB@CYCLE", "kill a job's core"),
            Flag::repeated("--paths", "A,B,..", "extra columns"),
        ],
        epilog: "",
    };

    /// Parses a command line given as one string, split on spaces.
    fn parse(spec: &Spec, line: &str) -> Result<Args, CliError> {
        spec.parse(line.split_whitespace().map(String::from))
    }

    fn ok(line: &str) -> Args {
        parse(&TOOL, line).unwrap()
    }

    fn why<T: std::fmt::Debug>(r: Result<T, CliError>) -> String {
        match r {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn switches_values_lists_and_positionals() {
        let a = ok("--json conv --period 250 8");
        assert!(a.switch("--json") && !a.switch("--suite"));
        assert_eq!(a.text("--period").as_deref(), Some("250"));
        assert_eq!(a.num::<u64>("--period", 1..), Ok(Some(250)));
        assert_eq!(a.num::<u64>("--cores", 1..), Ok(None));
        assert_eq!(a.positionals(), ["conv", "8"]);
        // A value is taken verbatim, even when it looks like a flag.
        let a = ok("--period --json");
        assert_eq!(a.text("--period").as_deref(), Some("--json"));
        assert!(!a.switch("--json"));
        // The last value wins unless the flag is repeatable.
        let a = ok("--cores 2 --kill-core 1@5 --cores 4 --kill-core 2@9");
        assert_eq!(a.texts("--cores").collect::<Vec<_>>(), ["4"]);
        assert_eq!(a.pairs("--kill-core"), Ok(vec![(1, 5), (2, 9)]));
        // Comma lists flatten across occurrences.
        let a = ok("--paths a,b, --paths c --cores 1,2,16");
        assert_eq!(a.list("--paths"), ["a", "b", "c"]);
        assert_eq!(a.nums::<usize>("--cores", 1..), Ok(vec![1, 2, 16]));
        assert_eq!(a.nums::<usize>("--period", 1..), Ok(vec![]));
    }

    #[test]
    fn every_error_kind_has_its_message() {
        let cases = [
            ("--nope", "unknown flag `--nope`"),
            ("-x", "unknown flag `-x`"),
            ("conv --period", "--period wants a value (CYCLES)"),
            ("conv 4 extra", "unexpected argument `extra`"),
        ];
        for (line, want) in cases {
            assert_eq!(why(parse(&TOOL, line)), want, "{line}");
        }
        let positionals = &["BEFORE", "AFTER"];
        let two = Spec {
            positionals,
            ..TOOL
        };
        assert_eq!(why(parse(&two, "one.json")), "missing AFTER");
        assert!(parse(&two, "one.json two.json").is_ok());
        let positionals = &["NAME..."];
        let many = Spec {
            positionals,
            ..TOOL
        };
        assert_eq!(why(parse(&many, "")), "missing NAME...");
        assert_eq!(parse(&many, "a b c").unwrap().positionals().len(), 3);

        let a = ok("--cores 0 --period x --threshold -1 --kill-core 7");
        let cores = "--cores wants a number >= 1, got `0`";
        assert_eq!(why(a.num::<usize>("--cores", 1..)), cores);
        assert_eq!(why(a.nums::<usize>("--cores", 1..)), cores);
        let period = why(a.num::<u64>("--period", ..));
        assert_eq!(period, "--period wants a number, got `x`");
        let period = why(a.num::<u32>("--period", ..=9));
        assert_eq!(period, "--period wants a number <= 9, got `x`");
        let threshold = why(a.num::<f64>("--threshold", 0.0..));
        assert_eq!(threshold, "--threshold wants a number >= 0, got `-1`");
        assert_eq!(a.num::<f64>("--threshold", ..), Ok(Some(-1.0)));
        let pair = why(a.pairs("--kill-core"));
        assert_eq!(pair, "--kill-core wants A@B, got `7`");
    }

    #[test]
    fn the_workload_selector_takes_a_name_or_the_suite_not_both() {
        let one = ok("conv 4");
        assert_eq!(one.workloads().unwrap()[0].name, "conv");
        assert_eq!(one.cores(), Ok(Some(4)));
        let all = ok("--suite --cores 2");
        assert_eq!(all.workloads().unwrap().len(), suite::all().len());
        assert_eq!(all.cores(), Ok(Some(2)));
        assert_eq!(ok("conv").cores(), Ok(None));
        let both = why(ok("conv --suite").workloads());
        assert_eq!(both, "pass a workload name or --suite, not both");
        assert_eq!(why(ok("").workloads()), "pass a workload name or --suite");
        let unknown = why(ok("fmradio").workloads());
        assert!(unknown.starts_with("unknown workload `fmradio`; available: conv, "));
        // The positional core count is held to the same range as --cores.
        let zero = why(ok("conv 0").cores());
        assert_eq!(zero, "the core count wants a number >= 1, got `0`");
    }

    #[test]
    fn help_is_generated_from_the_table() {
        for line in ["--help", "conv -h --nope"] {
            let Err(CliError::Help(text)) = parse(&TOOL, line) else {
                panic!("`{line}` must ask for help");
            };
            assert!(text.starts_with("usage: tool [flags] [WORKLOAD] [CORES]\n"));
            assert!(text.contains(TOOL.about));
            for f in TOOL.flags {
                let mut rows = text.lines().filter(|l| l.trim_start().starts_with(f.name));
                let row = rows.next().expect("every flag has a help row");
                assert!(row.contains(f.help));
                assert_eq!(row.contains(f.value.unwrap_or("\0")), f.value.is_some());
                assert_eq!(row.contains("(repeatable)"), f.repeat);
            }
        }
        let epilog = "lint codes:\n  L001\n";
        let help = Spec { epilog, ..TOOL }.help();
        assert!(help.ends_with("extra columns (repeatable)\n\nlint codes:\n  L001\n"));
    }

    const NAMES: [&str; 6] = ["--a", "--suite", "--cores", "--x-y", "-q", "--kill-core"];
    const TOKENS: &str = "--a --suite --cores --x-y -q --kill-core --help --zzz - conv 0 \
                          1,2,,x 3@4 @ 18446744073709551616";
    const SHAPES: [&[&str]; 5] = [&[], &["A"], &["[A]", "[B]"], &["A", "[B...]"], &["A..."]];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        // ROADMAP 5(d): no argv panics the parser or a lookup, whatever
        // the table; and what parses respects the table.
        #[test]
        fn no_argv_panics_against_any_table(
            kinds in proptest::collection::vec(0u8..4, NAMES.len()),
            shape in 0usize..SHAPES.len(),
            picks in proptest::collection::vec(0usize..16, 0..8),
        ) {
            let flag = |(&name, &kind): (&&'static str, &u8)| match kind {
                0 => None,
                1 => Some(Flag::switch(name, "a switch")),
                2 => Some(Flag::value(name, "V", "a value")),
                _ => Some(Flag::repeated(name, "V", "a repeatable value")),
            };
            let flags: Vec<Flag> = NAMES.iter().zip(&kinds).filter_map(flag).collect();
            let positionals = SHAPES[shape];
            let spec = Spec { prog: "p", about: "", positionals, flags: &flags, epilog: "" };
            prop_assert!(spec.help().lines().count() >= 3);
            // Pick 15 is the empty token.
            let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
            let argv: Vec<&str> = picks.iter().map(|&i| *tokens.get(i).unwrap_or(&"")).collect();
            match spec.parse(argv.iter().map(ToString::to_string)) {
                Err(CliError::Help(_)) => prop_assert!(argv.contains(&"--help")),
                Err(CliError::Usage(msg)) => prop_assert!(!msg.is_empty()),
                Ok(args) => {
                    for f in &flags {
                        prop_assert!(f.repeat || args.texts(f.name).count() <= 1);
                        // Lookups may refuse a value; they never panic.
                        let _ = (args.num::<u64>(f.name, 1..), args.nums::<usize>(f.name, ..));
                        let _ = (args.num::<f64>(f.name, 0.0..), args.pairs(f.name));
                        let _ = args.list(f.name);
                    }
                    let _ = (args.workloads(), args.cores());
                    let n = args.positionals().len();
                    let required = positionals.iter().filter(|p| !p.starts_with('[')).count();
                    prop_assert!(n >= required && (n <= positionals.len() || shape >= 3));
                }
            }
        }
    }
}
