//! The standalone `serve` binary: bind a port, define a schema, optionally
//! preload CSV instance directories, and serve comparisons until a wire
//! `shutdown` request arrives.
//!
//! ```text
//! serve --addr 127.0.0.1:7878 \
//!       --relation 'Conf:Name,Year,Org' \
//!       --load v1=data/v1 --load v2=data/v2 \
//!       --workers 4 --queue 64 --budget-ms 5000
//! ```
//!
//! `--relation` may repeat (multi-relation schemas); each `--load NAME=DIR`
//! expects one `<relation>.csv` per schema relation inside `DIR`. Requests
//! can load further instances at runtime via the `load` request kind.
//!
//! With `--data-dir DIR` the catalog is durable: every mutation is
//! write-ahead logged under `DIR`, and a restart recovers the catalog
//! (snapshot + WAL replay) before serving — see `DESIGN.md` §11.

use ic_model::{RelationSchema, Schema};
use ic_serve::{ServeCatalog, Server, ServerConfig};
use ic_store::FileStorage;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: serve [options]
  --addr HOST:PORT       bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --relation NAME:A,B,…  add a relation to the schema (repeatable, required)
  --load NAME=DIR        preload instance NAME from CSV directory DIR (repeatable)
  --data-dir DIR         durable catalog: recover from DIR at startup, then
                         write-ahead log every mutation there (default: in-memory)
  --workers N            worker loops (default 2)
  --queue N              bounded request-queue depth (default 64)
  --budget-ms N          default per-request deadline in ms (default: none)
  --idle-ms N            close connections idle for N ms (default: never)
  --help                 print this help";

struct Args {
    addr: String,
    relations: Vec<(String, Vec<String>)>,
    loads: Vec<(String, String)>,
    data_dir: Option<String>,
    cfg: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        relations: Vec::new(),
        loads: Vec::new(),
        data_dir: None,
        cfg: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => args.addr = value("--addr")?,
            "--relation" => {
                let spec = value("--relation")?;
                let (name, attrs) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--relation expects NAME:A,B,… (got {spec:?})"))?;
                let attrs: Vec<String> = attrs.split(',').map(str::to_string).collect();
                if name.is_empty() || attrs.iter().any(String::is_empty) {
                    return Err(format!("--relation expects NAME:A,B,… (got {spec:?})"));
                }
                args.relations.push((name.to_string(), attrs));
            }
            "--load" => {
                let spec = value("--load")?;
                let (name, dir) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--load expects NAME=DIR (got {spec:?})"))?;
                args.loads.push((name.to_string(), dir.to_string()));
            }
            "--workers" => {
                args.cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?;
            }
            "--queue" => {
                args.cfg.queue_depth = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue expects a positive integer".to_string())?;
            }
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--budget-ms" => {
                let ms: u64 = value("--budget-ms")?
                    .parse()
                    .map_err(|_| "--budget-ms expects an integer".to_string())?;
                args.cfg.default_budget = Some(Duration::from_millis(ms));
            }
            "--idle-ms" => {
                let ms: u64 = value("--idle-ms")?
                    .parse()
                    .map_err(|_| "--idle-ms expects an integer".to_string())?;
                args.cfg.idle_timeout = Some(Duration::from_millis(ms));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.relations.is_empty() {
        return Err("at least one --relation is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("serve: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut schema = Schema::new();
    for (name, attrs) in &args.relations {
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        schema.add_relation(RelationSchema::new(name.clone(), &attrs));
    }
    let catalog = match &args.data_dir {
        None => ServeCatalog::new(schema),
        Some(dir) => {
            let storage = match FileStorage::open(dir) {
                Ok(s) => Box::new(s),
                Err(e) => {
                    eprintln!("serve: opening data dir {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match ServeCatalog::durable(schema, storage) {
                Ok(catalog) => {
                    let snap = catalog.snapshot();
                    let names: Vec<&str> = snap.names().collect();
                    eprintln!(
                        "serve: recovered {} instance(s) from {dir}{}",
                        names.len(),
                        if names.is_empty() {
                            String::new()
                        } else {
                            format!(" ({})", names.join(", "))
                        }
                    );
                    catalog
                }
                Err(e) => {
                    eprintln!("serve: recovering catalog from {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let catalog = Arc::new(catalog);

    for (name, dir) in &args.loads {
        match catalog.load_csv_dir(name, std::path::Path::new(dir)) {
            Ok(tuples) => eprintln!("serve: loaded {name:?} from {dir} ({tuples} tuples)"),
            Err(e) => {
                eprintln!("serve: loading {name:?} from {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let server = match Server::start(catalog, args.addr.as_str(), args.cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: binding {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The one line scripts can parse to discover an ephemeral port.
    println!("serve: listening on {}", server.local_addr());
    server.wait();
    eprintln!("serve: drained and stopped");
    ExitCode::SUCCESS
}
