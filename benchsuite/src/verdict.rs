//! The verdict checker. What a member must yield is fixed by how the
//! generator built it — never by what the analyzer said on an earlier run:
//! a clean member must print "no alarms"; a member with planted bug `K`
//! must print exactly one alarm, of kind `K`, on a line inside `buggy`.

use astree::gen::BugKind;

/// The verdict a member has by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Alarm-free by construction.
    Clean,
    /// Exactly one alarm of this kind, on a source line within
    /// `first_line..=last_line` (the body of `buggy`).
    Alarm {
        /// The planted bug.
        kind: BugKind,
        /// Line of `void buggy(void) {`.
        first_line: u32,
        /// Line of the closing brace of `buggy`.
        last_line: u32,
    },
}

impl Expect {
    /// Reads the verdict off the generated text: the planted bug lives in
    /// the one function named `buggy`, whose line range is found here.
    pub fn from_construction(source: &str, bug: Option<BugKind>) -> Expect {
        let Some(kind) = bug else { return Expect::Clean };
        let mut first_line = 0;
        for (i, line) in source.lines().enumerate() {
            let n = i as u32 + 1;
            if line.starts_with("void buggy(void) {") {
                first_line = n;
            } else if first_line != 0 && line == "}" {
                return Expect::Alarm { kind, first_line, last_line: n };
            }
        }
        panic!("a member generated with a bug has no `buggy` function");
    }

    /// The planted bug, if any.
    pub fn bug(&self) -> Option<BugKind> {
        match *self {
            Expect::Clean => None,
            Expect::Alarm { kind, .. } => Some(kind),
        }
    }
}

/// The phrase an alarm of each planted kind carries, written down here
/// independently of the analyzer's own tables.
fn phrase(kind: BugKind) -> &'static str {
    match kind {
        BugKind::DivByZero => "possible division by zero in",
        BugKind::OutOfBounds => "possible out-of-bounds array access in",
        BugKind::IntOverflow => "possible integer overflow in",
    }
}

/// The alarm lines of one `astree analyze` (or `client`) standard output:
/// `Ok(vec![])` for "no alarms", the indented lines after `N alarm(s):`
/// otherwise, `Err` when the output announces neither or miscounts.
pub fn alarms_of_stdout(stdout: &str) -> Result<Vec<String>, String> {
    let mut lines = stdout.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("no alarms:") {
            return Ok(Vec::new());
        }
        if let Some(count) = line.strip_suffix(" alarm(s):") {
            let count: usize = count.parse().map_err(|_| format!("bad alarm header `{line}`"))?;
            let alarms: Vec<String> =
                lines.map_while(|l| l.strip_prefix("  ")).map(str::to_string).collect();
            if alarms.len() != count {
                return Err(format!("header says {count} alarm(s), {} listed", alarms.len()));
            }
            return Ok(alarms);
        }
    }
    Err("output carries no verdict".into())
}

/// The per-job alarm lines of a `fleet-report/1` stable report, in
/// submission order: `(job name, status, alarm lines)`.
pub fn alarms_of_report(report: &str) -> Vec<(String, String, Vec<String>)> {
    let mut jobs: Vec<(String, String, Vec<String>)> = Vec::new();
    for line in report.lines() {
        if let Some(name) = line.strip_prefix("job ") {
            jobs.push((name.to_string(), String::new(), Vec::new()));
        } else if let Some(job) = jobs.last_mut() {
            if let Some(status) = line.strip_prefix("status ") {
                job.1 = status.to_string();
            } else if let Some(alarm) = line.strip_prefix("alarm ") {
                job.2.push(alarm.to_string());
            }
        }
    }
    jobs
}

/// Checks one member's alarm lines against its verdict by construction.
pub fn check(expect: &Expect, alarms: &[String]) -> Result<(), String> {
    match *expect {
        Expect::Clean => match alarms {
            [] => Ok(()),
            _ => Err(format!("clean member raised {} alarm(s): {}", alarms.len(), alarms[0])),
        },
        Expect::Alarm { kind, first_line, last_line } => {
            let [alarm] = alarms else {
                return Err(format!(
                    "planted {kind:?}: want exactly 1 alarm, got {}",
                    alarms.len()
                ));
            };
            let line: Option<u32> = alarm
                .strip_prefix("line ")
                .and_then(|rest| rest.split_once(':'))
                .and_then(|(n, _)| n.parse().ok());
            let Some(line) = line else {
                return Err(format!("alarm without a line number: {alarm}"));
            };
            if !alarm.contains(phrase(kind)) {
                return Err(format!("planted {kind:?}, wrong kind reported: {alarm}"));
            }
            if !(first_line..=last_line).contains(&line) {
                return Err(format!(
                    "alarm on line {line}, outside `buggy` ({first_line}..={last_line}): {alarm}"
                ));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree::gen::{generate, GenConfig};

    fn buggy(kind: BugKind) -> Expect {
        let src = generate(&GenConfig { channels: 2, seed: 9, bug: Some(kind) });
        Expect::from_construction(&src, Some(kind))
    }

    fn line_inside(e: &Expect) -> u32 {
        match *e {
            Expect::Alarm { first_line, .. } => first_line + 1,
            Expect::Clean => unreachable!(),
        }
    }

    #[test]
    fn clean_member_accepts_only_silence() {
        assert!(check(&Expect::Clean, &[]).is_ok());
        let alarm = "line 3: possible division by zero in `x = 1 / d`".to_string();
        assert!(check(&Expect::Clean, &[alarm]).is_err());
    }

    #[test]
    fn each_bug_kind_accepts_exactly_its_own_alarm_inside_buggy() {
        let text = [
            (BugKind::DivByZero, "possible division by zero in `bug_num = (100 / (bug_den + 1))`"),
            (BugKind::OutOfBounds, "possible out-of-bounds array access in `bug_out = tbl0[bi]`"),
            (BugKind::IntOverflow, "possible integer overflow in `bug_acc = (bug_acc + 1000000)`"),
        ];
        for (kind, what) in text {
            let e = buggy(kind);
            let good = format!("line {}: {what}", line_inside(&e));
            assert_eq!(check(&e, std::slice::from_ref(&good)), Ok(()), "{kind:?}");
            assert!(check(&e, &[]).is_err(), "{kind:?}: a missed bug must fail");
            assert!(check(&e, &[good.clone(), good]).is_err(), "{kind:?}: two alarms must fail");
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let e = buggy(BugKind::DivByZero);
        let alarm = format!("line {}: possible integer overflow in `x = y`", line_inside(&e));
        let err = check(&e, &[alarm]).unwrap_err();
        assert!(err.contains("wrong kind"), "{err}");
    }

    #[test]
    fn alarm_outside_buggy_is_rejected() {
        let e = buggy(BugKind::DivByZero);
        let alarm = "line 1: possible division by zero in `q = a / b`".to_string();
        let err = check(&e, &[alarm]).unwrap_err();
        assert!(err.contains("outside `buggy`"), "{err}");
    }

    #[test]
    fn buggy_range_brackets_the_planted_statement() {
        let src = generate(&GenConfig { channels: 3, seed: 4, bug: Some(BugKind::IntOverflow) });
        let Expect::Alarm { first_line, last_line, .. } =
            Expect::from_construction(&src, Some(BugKind::IntOverflow))
        else {
            panic!("buggy member")
        };
        let body: Vec<&str> = src
            .lines()
            .skip(first_line as usize)
            .take((last_line - first_line - 1) as usize)
            .collect();
        assert!(body.iter().any(|l| l.contains("bug_acc = bug_acc + 1000000")), "{body:?}");
    }

    #[test]
    fn stdout_and_report_parsers_read_the_cli_shapes() {
        let clean = "analyzed 3 statements\ntime: 1ms\n\nno alarms: the program is proven free\n";
        assert_eq!(alarms_of_stdout(clean), Ok(vec![]));
        let one = "time: 1ms\n\n1 alarm(s):\n  line 9: possible integer overflow in `a = b`\n";
        assert_eq!(
            alarms_of_stdout(one),
            Ok(vec!["line 9: possible integer overflow in `a = b`".to_string()])
        );
        assert!(alarms_of_stdout("2 alarm(s):\n  line 1: x\n").is_err());
        assert!(alarms_of_stdout("astree: boom\n").is_err());
        let report = "fleet-report/1\njob a.c\nstatus done\nalarms 1\nalarm line 2: possible x\n\
                      invariant clock = [1, 2]\njob b.c\nstatus failed\nalarms -\n";
        let jobs = alarms_of_report(report);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0], ("a.c".into(), "done".into(), vec!["line 2: possible x".into()]));
        assert_eq!(jobs[1], ("b.c".into(), "failed".into(), vec![]));
    }
}
