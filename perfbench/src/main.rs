use std::process::ExitCode;

fn main() -> ExitCode {
    perfbench::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match perfbench::Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
