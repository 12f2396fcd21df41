//! Standalone HyParView node: bind an address, optionally join a contact,
//! broadcast lines from stdin and print every delivery.
//!
//! ```text
//! # terminal 1 — bootstrap node
//! cargo run --release -p hyparview-net --bin hyparview_node -- --bind 127.0.0.1:9000
//! # terminal 2 — join and chat
//! cargo run --release -p hyparview-net --bin hyparview_node -- \
//!     --bind 127.0.0.1:9001 --join 127.0.0.1:9000
//! ```

use hyparview_net::{BroadcastMode, NetConfig, Node};
use std::io::BufRead;
use std::net::SocketAddr;
use std::time::Duration;

struct Args {
    bind: SocketAddr,
    join: Option<SocketAddr>,
    shuffle_ms: u64,
    active: usize,
    passive: usize,
    plumtree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bind: "127.0.0.1:0".parse().unwrap(),
        join: None,
        shuffle_ms: 1000,
        active: 5,
        passive: 30,
        plumtree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--bind" => args.bind = value("--bind")?.parse().map_err(|e| format!("--bind: {e}"))?,
            "--join" => {
                args.join = Some(value("--join")?.parse().map_err(|e| format!("--join: {e}"))?)
            }
            "--shuffle-ms" => {
                args.shuffle_ms =
                    value("--shuffle-ms")?.parse().map_err(|e| format!("--shuffle-ms: {e}"))?
            }
            "--active" => {
                args.active = value("--active")?.parse().map_err(|e| format!("--active: {e}"))?
            }
            "--passive" => {
                args.passive = value("--passive")?.parse().map_err(|e| format!("--passive: {e}"))?
            }
            "--plumtree" => args.plumtree = true,
            "--help" | "-h" => {
                println!(
                    "usage: hyparview_node [--bind ADDR] [--join ADDR] \
                     [--shuffle-ms N] [--active N] [--passive N] [--plumtree]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> std::io::Result<()> {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hyparview_node: {e}");
            std::process::exit(2);
        }
    };

    let config = NetConfig {
        protocol: hyparview_core::Config::default()
            .with_active_capacity(args.active)
            .with_passive_capacity(args.passive),
        shuffle_interval: Duration::from_millis(args.shuffle_ms),
        broadcast_mode: if args.plumtree { BroadcastMode::Plumtree } else { BroadcastMode::Flood },
        ..NetConfig::default()
    };
    let mode = config.broadcast_mode;
    let node = Node::spawn(args.bind, config)?;
    eprintln!("listening on {} ({mode} broadcast)", node.addr());
    if let Some(contact) = args.join {
        eprintln!("joining through {contact}");
        node.join(contact);
    }

    // Print deliveries and periodic view snapshots from a helper thread.
    let deliveries = node.deliveries().clone();
    std::thread::spawn(move || {
        for delivery in deliveries.iter() {
            match std::str::from_utf8(&delivery.payload) {
                Ok(text) => println!("[{} hops] {text}", delivery.hops),
                Err(_) => println!("[{} hops] {} bytes", delivery.hops, delivery.payload.len()),
            }
        }
    });

    println!("type a message and press enter to broadcast; 'view' prints the views; 'quit' exits");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        match line.trim() {
            "" => {}
            "quit" | "exit" => break,
            "view" => {
                println!("active:  {:?}", node.active_view());
                println!("passive: {:?}", node.passive_view());
                if args.plumtree {
                    println!("eager:   {:?}", node.eager_peers());
                    println!("lazy:    {:?}", node.lazy_peers());
                }
            }
            text => {
                if let Err(e) = node.try_broadcast(text.as_bytes().to_vec()) {
                    println!("not sent: {e}");
                }
            }
        }
    }
    node.leave();
    std::thread::sleep(Duration::from_millis(200));
    node.shutdown();
    Ok(())
}
