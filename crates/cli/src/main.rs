//! The `emumap` binary: thin wrapper over [`emumap_cli`].

fn main() {
    let parsed = match emumap_cli::Parsed::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("usage error: {e}\n\n{}", emumap_cli::commands::USAGE);
            std::process::exit(2);
        }
    };
    match emumap_cli::run(parsed) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
