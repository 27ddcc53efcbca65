//! Resources are registered as specs and get service state on first use.
//!
//! These tests pin what that split must not change: ids, trace lanes and
//! names follow registration order whatever order activities touch the
//! resources in; an untouched resource reports zero usage and stays out
//! of the exports but is still counted as registered; and service
//! windows installed before any activity names a resource still apply.

use mcio_des::{
    Activity, Bandwidth, ResourceUsage, ServiceWindow, SharePolicy, SimDuration, SimTime,
    Simulation,
};
use mcio_obs::{Registry, TraceCollector};

fn bw(bps: f64) -> Bandwidth {
    Bandwidth::bytes_per_sec(bps)
}

#[test]
fn first_use_out_of_registration_order_keeps_ids_lanes_and_names() {
    let mut sim = Simulation::new();
    sim.enable_trace();
    let head = sim.add_resource("head.bus", bw(100.0));
    let block = sim.add_resource_range(3, 1, |i| bw(100.0 * (i + 1) as f64), |i| format!("blk{i}"));
    let tail = sim.add_resource("tail", bw(100.0));
    assert_eq!(
        [
            head.index(),
            block.index(),
            block.offset(2).index(),
            tail.index()
        ],
        [0, 1, 3, 4]
    );
    // Touch the resources back to front.
    sim.add_activity(Activity::new("t").stage(tail, 100, SimDuration::ZERO));
    sim.add_activity(Activity::new("b2").stage(block.offset(2), 300, SimDuration::ZERO));
    sim.add_activity(Activity::new("h").stage(head, 100, SimDuration::ZERO));
    let rep = sim.run().unwrap();

    // The range member got its own bandwidth: 300 B at 300 B/s.
    assert_eq!(
        rep.resource_usage(block.offset(2)).busy_time.as_secs_f64(),
        1.0
    );
    let ids: Vec<usize> = rep
        .resource_usages()
        .iter()
        .map(|(r, _)| r.index())
        .collect();
    assert_eq!(ids, [0, 3, 4]);
    assert_eq!(rep.resource_name(block.offset(1)), "blk1");

    let tc = TraceCollector::new();
    rep.trace_into(&tc, 1);
    assert_eq!(
        tc.thread_names(),
        [
            (1, 0, "head.bus".to_string()),
            (1, 3, "blk2".to_string()),
            (1, 4, "tail".to_string())
        ]
    );
    let mut lanes: Vec<(String, String, u64)> = tc
        .spans()
        .into_iter()
        .map(|s| (s.name, s.cat, s.tid))
        .collect();
    lanes.sort();
    assert_eq!(
        lanes,
        [
            ("b2".to_string(), "blk2".to_string(), 3),
            ("h".to_string(), "head.bus".to_string(), 0),
            ("t".to_string(), "tail".to_string(), 4)
        ]
    );
}

#[test]
fn idle_resource_reports_zero_usage_and_stays_out_of_exports() {
    for policy in [SharePolicy::Fifo, SharePolicy::FairShare] {
        let mut sim = Simulation::with_policy(policy);
        let nodes = sim.add_resource_range(
            4,
            1,
            |_| bw(100.0),
            |i| format!("node{}.{}", i / 2, ["membus", "nic_tx"][i % 2]),
        );
        let ost = sim.add_resource("ost0", bw(100.0));
        sim.add_activity(Activity::new("a").stage(nodes, 100, SimDuration::ZERO));
        sim.add_activity(Activity::new("b").stage(ost, 100, SimDuration::ZERO));
        assert_eq!(sim.resource_count(), 5);
        let rep = sim.run().unwrap();

        let idle = nodes.offset(1);
        assert_eq!(rep.resource_usage(idle), &ResourceUsage::IDLE);
        assert_eq!(rep.resource_usage(idle).jobs_served, 0);
        assert_eq!(rep.resource_usage(nodes).jobs_served, 1);
        assert_eq!(rep.resource_usages().len(), 2);
        assert_eq!(rep.engine_profile().resources, 5);
        // No activity touched a `nic_tx`: the class is absent.
        let classes: Vec<String> = rep.class_max_queues().into_iter().map(|(c, _)| c).collect();
        assert_eq!(classes, ["membus", "ost"]);

        let reg = Registry::new();
        rep.record_into(&reg);
        let snap = reg.snapshot();
        let resources: Vec<&str> = snap
            .counters
            .iter()
            .filter(|c| c.name == "des.resource.jobs")
            .flat_map(|c| c.labels.iter().map(|(_, v)| v.as_str()))
            .collect();
        assert_eq!(resources, ["node0.membus", "ost0"]);
    }
}

#[test]
fn windows_installed_before_first_use_are_honoured() {
    for policy in [SharePolicy::Fifo, SharePolicy::FairShare] {
        let mut sim = Simulation::with_policy(policy);
        let slow = sim.add_resource("slow", bw(100.0));
        // Half speed for the first 10 s; installed before any activity
        // names the resource, and before the range below is registered.
        sim.set_service_windows(
            slow,
            vec![ServiceWindow {
                start: SimTime::ZERO,
                end: SimTime::from_nanos(10_000_000_000),
                rate: 0.5,
            }],
        );
        let block =
            sim.add_resource_range(2, 1, |_| bw(100.0), |i| ["stalled", "busy"][i].to_string());
        // A stall on a resource nothing ever uses: touched, never served.
        sim.set_service_windows(
            block,
            vec![ServiceWindow {
                start: SimTime::ZERO,
                end: SimTime::from_nanos(1),
                rate: 0.0,
            }],
        );
        let a = sim.add_activity(Activity::new("a").stage(slow, 100, SimDuration::ZERO));
        let b = sim.add_activity(Activity::new("b").stage(block.offset(1), 100, SimDuration::ZERO));
        let rep = sim.run().unwrap();
        assert_eq!(rep.finish_time(a).as_secs_f64(), 2.0, "{policy:?}");
        assert_eq!(rep.finish_time(b).as_secs_f64(), 1.0, "{policy:?}");
        assert_eq!(rep.resource_usage(block).jobs_served, 0);
        let reg = Registry::new();
        rep.record_into(&reg);
        assert_eq!(
            reg.counter_value("des.resource.jobs", &[("resource", "stalled")]),
            0
        );
        assert_eq!(
            rep.class_max_queues(),
            [("busy".to_string(), 1), ("slow".to_string(), 1)]
        );
    }
}
