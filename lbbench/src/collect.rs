//! Reads every layer's public counters from a finished cluster, and
//! checks the packet and request accounting identities over them.

use experiments::KvCluster;
use netsim::LinkId;
use nettcp::Host;

use crate::out::Record;
use crate::workloads::link_count;

/// Counters whose values are a pure function of workload, span and seed.
/// Two runs of one workload and seed must agree on all of them.
pub fn sim_counters(c: &KvCluster, rec: &mut Record) {
    let sim = c.sim.stats();
    rec.u("netsim.events", sim.events_processed);
    rec.u("netsim.packets", sim.packets_delivered);
    rec.u("netsim.timers", sim.timers_fired);
    let links = link_totals(c);
    rec.u("netsim.link_sent", links.sent);
    rec.u("netsim.link_drops", links.drops);
    rec.u(
        "netsim.link_impaired",
        links.corrupted + links.duplicated + links.reordered,
    );

    let lb = c.lb_node().stats();
    rec.u("lb-dataplane.rx", lb.rx);
    rec.u("lb-dataplane.forwarded", lb.forwarded);
    rec.u("lb-dataplane.dropped", lb.dropped);
    rec.u("lb-dataplane.new_flows", lb.new_flows);
    rec.u("lb-dataplane.fallback_forwards", lb.fallback_forwards);
    rec.u("lb-dataplane.samples", lb.samples);
    rec.u("lb-dataplane.table_rebuilds", lb.table_rebuilds);
    rec.u("lb-dataplane.ejections", lb.ejections);
    rec.u("lb-dataplane.flows_repinned", lb.flows_repinned);
    rec.u("lb-dataplane.no_backend_drops", lb.no_backend_drops);

    let (mut out, mut retx, mut rto, mut rst, mut opened) = (0, 0, 0, 0, 0);
    for &id in c.clients.iter().chain(&c.backends) {
        let s = c.sim.node_ref::<Host>(id).expect("tcp host").stats;
        out += s.packets_out;
        retx += s.retransmits;
        rto += s.timeouts;
        rst += s.rsts_sent;
        opened += s.conns_opened;
    }
    rec.u("nettcp.segments_out", out);
    rec.u("nettcp.retransmits", retx);
    rec.u("nettcp.timeouts", rto);
    rec.u("nettcp.rsts_sent", rst);
    rec.u("nettcp.conns_opened", opened);

    let (mut served, mut orphaned, mut stalled) = (0, 0, 0);
    for j in 0..c.backends.len() {
        let s = c.backend_app(j).stats;
        served += s.gets + s.sets;
        orphaned += s.orphaned;
        stalled += s.stalled;
    }
    rec.u("backend.served", served);
    rec.u("backend.orphaned", orphaned);
    rec.u("backend.stalled", stalled);

    let client = c.client_app(0);
    rec.u("workload.issued", client.stats.issued);
    rec.u("workload.completed", client.stats.completed);
    rec.u("workload.conns_broken", client.stats.conns_broken);
    rec.u("workload.requests_lost", client.stats.requests_lost);
    rec.u("workload.responses_recorded", client.recorder.responses);

    let mut gets: Vec<u64> = client
        .recorder
        .raw()
        .iter()
        .filter(|&&(_, _, is_get)| is_get)
        .map(|&(_, latency, _)| latency)
        .collect();
    gets.sort_unstable();
    rec.u("get_samples", gets.len() as u64);
    rec.f("get_p50_us", nearest_rank(&gets, 0.50) as f64 / 1e3);
    rec.f("get_p99_us", nearest_rank(&gets, 0.99) as f64 / 1e3);
    rec.u("req_completed", client.stats.completed);
}

/// Nearest-rank percentile of sorted samples (zero when empty), the
/// rule `telemetry::exact_percentile` uses.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[derive(Default)]
struct LinkTotals {
    sent: u64,
    drops: u64,
    corrupted: u64,
    duplicated: u64,
    reordered: u64,
    /// Accepted by the LB's forwarding links in the LB→backend direction,
    /// plus what those links refused.
    lb_fwd_offered: u64,
}

fn link_totals(c: &KvCluster) -> LinkTotals {
    let mut t = LinkTotals::default();
    for i in 0..link_count(c) {
        let link = c.sim.link(LinkId(i));
        for dir in [&link.ab, &link.ba] {
            let s = dir.stats;
            t.sent += s.packets_sent;
            t.drops += s.packets_dropped + s.packets_dropped_down;
            t.corrupted += s.packets_corrupted;
            t.duplicated += s.packets_duplicated;
            t.reordered += s.packets_reordered;
        }
    }
    for &l in &c.backend_links {
        let s = c.sim.link(l).dir(c.lb).stats;
        t.lb_fwd_offered += s.packets_sent + s.packets_dropped + s.packets_dropped_down;
    }
    t
}

/// Outstanding requests the client can hold: one per connection
/// (pipeline 1), the bound on requests issued but neither completed nor
/// lost when the run stops.
const MAX_OUTSTANDING: u64 = 16;

/// Checks the accounting identities and returns the names of those that
/// fail. Each was confirmed to hold on every workload before it was
/// adopted; one that fails points at the program, not the benchmark.
pub fn identity_failures(c: &KvCluster) -> Vec<&'static str> {
    let mut failed = Vec::new();
    let lb = c.lb_node().stats();
    let links = link_totals(c);
    let sim = c.sim.stats();
    let client = c.client_app(0);
    let served: u64 = (0..c.backends.len())
        .map(|j| {
            let s = c.backend_app(j).stats;
            s.gets + s.sets
        })
        .sum();

    // Every frame the LB receives is forwarded or dropped with a counter.
    if lb.rx != lb.forwarded + lb.dropped {
        failed.push("lb_rx_is_forwarded_plus_dropped");
    }
    // Every forward reaches a forwarding link, which sends or refuses it.
    if lb.forwarded != links.lb_fwd_offered {
        failed.push("lb_forwards_reach_the_links");
    }
    // A link delivers what it accepted, less corrupted frames, plus
    // duplicates; the rest is still in flight or died at a crashed
    // receiver, so deliveries never exceed that budget.
    if sim.packets_delivered + links.corrupted > links.sent + links.duplicated {
        failed.push("deliveries_within_link_budget");
    }
    // The recorder sees exactly the responses the client counts.
    if client.recorder.responses != client.stats.completed {
        failed.push("recorded_responses_are_completions");
    }
    // Every issued request completed, was lost on a broken connection,
    // or is still outstanding on one of the connections.
    let settled = client.stats.completed + client.stats.requests_lost;
    if settled > client.stats.issued || client.stats.issued - settled > MAX_OUTSTANDING {
        failed.push("issued_is_completed_lost_or_outstanding");
    }
    // No completion without a backend having served the request.
    if client.stats.completed > served {
        failed.push("completions_were_served");
    }
    failed
}
