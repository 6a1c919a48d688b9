//! `dcmaint-lint` — lint the workspace at the current directory. Exits
//! 0 when clean, 1 on any finding, 2 on a usage or I/O error; see the
//! library crate for the rule catalog.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the command line is this binary's interface"
)]

use dcmaint_lint::{docs, report, rules};

const USAGE: &str = "usage: dcmaint-lint [--json] [--list-rules] [--explain RULE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--list-rules" => {
                for r in rules::ALL_RULES {
                    println!("{r:22} {}", rules::describe(r));
                }
                return;
            }
            "--explain" => {
                let Some(rule) = args.get(i + 1) else {
                    usage("--explain needs a value");
                };
                let Some(doc) = docs::doc_for(rule) else {
                    usage(&format!(
                        "unknown rule {rule:?} (see --list-rules for the registry)"
                    ));
                };
                print!("{}", docs::render_explain(doc));
                return;
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    match dcmaint_lint::lint_tree(std::path::Path::new(".")) {
        Ok(outcome) => {
            let rendered = if json {
                report::render_json(&outcome)
            } else {
                report::render_text(&outcome)
            };
            print!("{rendered}");
            std::process::exit(i32::from(!outcome.clean()));
        }
        Err(e) => {
            eprintln!("dcmaint-lint: {e}");
            std::process::exit(2);
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("dcmaint-lint: {err}\n{USAGE}");
    std::process::exit(2);
}
