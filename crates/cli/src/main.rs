//! The `dmm` command-line tool. See [`dmm_cli`] for the subcommands.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match dmm_cli::Invocation::parse(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("dmm: {e}");
            std::process::exit(2);
        }
    };
    match dmm_cli::run(&inv) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("dmm: {e}");
            std::process::exit(1);
        }
    }
}
