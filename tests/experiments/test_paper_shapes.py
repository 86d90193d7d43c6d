"""The paper's qualitative results, checked on every driver's own output.

One test per regenerated table or figure (DESIGN.md §4 and §5). Each calls
its driver (the one ``python -m repro.experiments`` runs) with its default
arguments, and ``REPEATS`` repetitions for figs. 11–15, and asserts the
shape the paper reports, so a change that moves a headline result fails
here:

* A1 — the edge wins by roughly the cloud RTT; the gap grows with RTT;
* A2 — the fast path adds ~0; the first packet pays dispatch + control
  channel; FlowMemory makes re-misses almost as cheap as the fast path;
* A3 — flow-setup latency grows with concurrent new flows (single-threaded
  controller) but not with the number of registered services;
* A4 — lower switch idle timeouts shrink the flow table at a modest
  packet-in cost while FlowMemory keeps redirect decisions cached;
* fig. 11/12: Docker scales a cached web container up in < 1 s, Kubernetes
  in ≈ 3 s; Asm ≈ Nginx; ResNet far slower;
* fig. 12: Create adds ≈ 100 ms on Docker;
* fig. 13: the private registry saves ≈ 1.5–2 s;
* fig. 14: ResNet's readiness wait is > ¼ of its total;
* fig. 16: warm requests are ~1 ms with no notable cluster difference;
* R1 — under injected pull failures every request is still answered (by the
  edge after retries, or by the cloud origin after the engine gives up) and
  no client ever hangs; the retry count grows with the injected rate while
  availability stays ≥ 99%;
* R2 — during a cluster outage the circuit breaker cuts the p99 tail: with
  it, only the tripping failures and probation probes pay the retry/backoff
  latency; without it, every outage request does.
"""

import pytest

from repro.experiments import ablations, extensions, parta, partb, robustness

REPEATS = 5


def _row(table, service):
    row = table.row_for("service", service)
    assert row is not None
    return row


# Figs. 12 and 14 compare against fig. 11, and fig. 15 against fig. 14:
# each is computed once for the module.
@pytest.fixture(scope="module")
def fig11():
    return partb.fig11_scale_up(repeats=REPEATS)


@pytest.fixture(scope="module")
def fig14():
    return partb.fig14_wait_after_scale_up(repeats=REPEATS)


# ---------------------------------------------------------------- Part A


class TestA1EdgeVsCloud:
    def test_a1_edge_vs_cloud(self):
        table = parta.a1_edge_vs_cloud()
        speedups = []
        for row in table.rows:
            assert row["edge_median"] < 0.005
            rtt_s = float(row["cloud_rtt_ms"]) / 1e3
            # cloud time ≈ handshake + request over the long path (≥ 2 RTT)
            assert row["cloud_median"] >= 2 * rtt_s
            speedups.append(row["cloud_median"] / row["edge_median"])
        # the farther the cloud, the bigger the transparent-edge win
        assert speedups == sorted(speedups)
        assert speedups[-1] > 20


class TestA2FirstPacket:
    def test_a2_first_packet_overhead(self):
        table = parta.a2_first_packet_overhead()
        by_path = {row["path"]: row["median"] for row in table.rows}
        assert by_path["fast_path"] < by_path["remiss_with_memory"]
        assert by_path["remiss_with_memory"] < by_path["remiss_without_memory"]
        assert by_path["first_packet"] >= by_path["remiss_without_memory"] * 0.9
        # the fast path is pure data plane: ~1-2 ms
        assert by_path["fast_path"] < 0.003
        # first-packet overhead stays well under typical deploy times
        assert by_path["first_packet"] < 0.05


class TestA2bControlLatency:
    def test_a2b_control_latency_sweep(self):
        table = parta.a2b_control_latency_sweep()
        overheads = [row["overhead"] for row in table.rows]
        latencies = [float(row["channel_latency_ms"]) / 1e3
                     for row in table.rows]
        # overhead strictly grows with channel latency ...
        assert overheads == sorted(overheads)
        # ... and approaches 2 x RTT + const: the extra overhead between two
        # latency settings is ~2 x the latency delta
        delta_overhead = overheads[-1] - overheads[0]
        delta_latency = latencies[-1] - latencies[0]
        assert delta_overhead == pytest.approx(2 * delta_latency, rel=0.2)
        # the fast path is latency-independent (pure data plane)
        fast = [row["fast_path_median"] for row in table.rows]
        assert max(fast) - min(fast) < 1e-4


class TestA3ControllerScaling:
    def test_a3_concurrency_scaling(self):
        table = parta.a3_controller_scaling()
        maxima = [row["max"] for row in table.rows]
        # latency grows with concurrency (serialized controller)
        assert maxima == sorted(maxima)
        assert maxima[-1] > maxima[0]
        # each new flow costs exactly 2 packet-ins (ARP handled once)
        for row in table.rows:
            assert row["packet_ins"] == 2 * row["concurrent"] + 1

    def test_a3b_service_count_flat(self):
        table = parta.a3_service_count_scaling()
        medians = [row["first_packet_median"] for row in table.rows]
        # O(1) ServiceID lookup: latency flat in the registry size
        assert max(medians) - min(medians) < 0.002


class TestA5MultiSwitch:
    def test_a5_multiswitch_overhead(self):
        table = parta.a5_multiswitch_overhead()
        single = table.row_for("fabric", "single-switch")
        fabric = table.row_for("fabric", "access+core")
        # rules land on every switch along the path
        assert fabric["switches_programmed"] == 2
        assert single["switches_programmed"] == 1
        # the extra hop costs link+switch latency, nothing pathological
        extra = fabric["warm_median"] - single["warm_median"]
        assert 0 < extra < 0.005
        # and the first-packet cost grows by roughly the same amount
        first_extra = (fabric["first_packet_median"]
                       - single["first_packet_median"])
        assert 0 < first_extra < 0.01


class TestA4FlowTable:
    def test_a4_flowtable_occupancy(self):
        table = parta.a4_flowtable_occupancy()
        rows = sorted(table.rows, key=lambda r: r["idle_timeout_s"])
        mean_flows = [r["mean_flows"] for r in rows]
        packet_ins = [r["packet_ins"] for r in rows]
        # smaller idle timeout -> smaller table
        assert mean_flows == sorted(mean_flows)
        # ... at the cost of more packet-ins (re-misses)
        assert packet_ins == sorted(packet_ins, reverse=True)
        # every service deployed exactly once regardless of the timeout
        assert len({r["deployments"] for r in rows}) == 1


# ---------------------------------------------------------------- Part B


class TestTableI:
    def test_table1_catalog(self):
        table = partb.table1_catalog()
        assert len(table.rows) == 4
        nginx = table.row_for("key", "nginx")
        assert nginx["layers"] == 6 and nginx["containers"] == 1
        resnet = table.row_for("key", "resnet")
        assert resnet["http"] == "POST"


class TestTraceFigures:
    def test_fig9_request_distribution(self):
        series = partb.fig9_request_distribution()
        assert series.total == 1708
        assert "services=42" in series.note

    def test_fig10_deployment_distribution(self):
        series = partb.fig10_deployment_distribution()
        assert series.total == 42
        # "up to eight deployments per second in the beginning"
        assert 4 <= series.peak <= 8
        # the burst is at the beginning: half the deployments in the first 10 s
        early = sum(y for x, y in zip(series.x, series.y, strict=True) if x < 10.0)
        assert early >= 21

    def test_fig10_measured_through_controller(self):
        series = partb.fig10_measured_deployments()
        assert series.total == 42  # every service deployed exactly once
        assert "failed_requests=0" in series.note


class TestDeploymentFigures:
    def test_fig11_scale_up(self, fig11):
        table = fig11
        nginx = _row(table, "nginx")
        asm = _row(table, "asm")
        resnet = _row(table, "resnet")
        multi = _row(table, "nginx+py")
        # Docker < 1 s, K8s ≈ 3 s (the headline result)
        assert nginx["docker_median"] < 1.0
        assert 2.0 < nginx["k8s_median"] < 4.0
        # "no notable difference between the tiny Assembler web server and
        # the far larger Nginx instance"
        assert abs(asm["docker_median"] - nginx["docker_median"]) < 0.15
        # "As expected, ResNet takes significantly longer to start"
        assert resnet["docker_median"] > 3 * nginx["docker_median"]
        # two containers cost more than one
        assert multi["docker_median"] > nginx["docker_median"]

    def test_fig12_create_scale_up(self, fig11):
        table = partb.fig12_create_scale_up(repeats=REPEATS)
        # "creating the containers adds around 100 ms"
        for service in ("asm", "nginx"):
            delta = (_row(table, service)["docker_median"]
                     - _row(fig11, service)["docker_median"])
            assert 0.05 < delta < 0.25
        # for ResNet the create overhead is negligible relative to its total
        resnet_delta = (_row(table, "resnet")["docker_median"]
                        - _row(fig11, "resnet")["docker_median"])
        assert resnet_delta / _row(table, "resnet")["docker_median"] < 0.05

    def test_fig13_pull_times(self):
        table = partb.fig13_pull_times()
        asm = _row(table, "asm")
        nginx = _row(table, "nginx")
        resnet = _row(table, "resnet")
        multi = _row(table, "nginx+py")
        # "the Pull phase is where the minuscule Assembler image shines"
        assert asm["public_s"] < 1.0
        assert asm["public_s"] < nginx["public_s"] / 3
        # ordering by size/layers
        assert nginx["public_s"] < multi["public_s"] < resnet["public_s"] + 1.0
        # "pull times improve by about 1.5 to 2 seconds" with the private
        # registry (for the big images)
        for row in (nginx, resnet, multi):
            assert 1.0 < row["saving_s"] < 3.0

    def test_fig14_wait_after_scale_up(self, fig11, fig14):
        table = fig14
        resnet_wait = _row(table, "resnet")["docker_median"]
        resnet_total = _row(fig11, "resnet")["docker_median"]
        # "the waiting time alone accounts for more than a fourth of the
        # total time" (ResNet)
        assert resnet_wait > resnet_total / 4
        # web services wait far less than ResNet
        assert _row(table, "nginx")["docker_median"] < resnet_wait / 10

    def test_fig15_wait_after_create_scale_up(self, fig14):
        table = partb.fig15_wait_after_create_scale_up(repeats=REPEATS)
        # waits are a property of startup, not of the create phase:
        for service in ("asm", "nginx", "resnet"):
            a = _row(table, service)["k8s_median"]
            b = _row(fig14, service)["k8s_median"]
            assert a == pytest.approx(b, rel=0.25)

    def test_fig16_running_instance(self):
        table = partb.fig16_running_instance()
        nginx = _row(table, "nginx")
        resnet = _row(table, "resnet")
        # "serving a short response message is achieved in about a
        # millisecond"
        assert nginx["docker_median"] < 0.005
        # "no notable difference between the two clusters"
        assert nginx["docker_median"] == pytest.approx(nginx["k8s_median"],
                                                       rel=0.2)
        # "the heavyweight image classification service requires
        # significantly longer"
        assert resnet["docker_median"] > 50 * nginx["docker_median"]


# ------------------------------------------------ ablations (DESIGN.md §5)


class TestAblationFlowMemory:
    def test_flow_memory_cuts_remiss_cost(self):
        table = ablations.ablation_flow_memory()
        on = table.row_for("flow_memory", "on")
        off = table.row_for("flow_memory", "off")
        assert on["remiss_median"] < off["remiss_median"]
        # without memory, every re-miss is a fresh dispatch
        assert off["dispatches"] > on["dispatches"]


class TestAblationWaitingModes:
    def test_waiting_modes(self):
        table = ablations.ablation_waiting_modes()
        with_waiting = table.row_for("mode", "with_waiting")
        without = table.row_for("mode", "without_waiting")
        # without-waiting answers the first request ~50x faster ...
        assert without["first_request"] < with_waiting["first_request"] / 10
        # ... and both end up serving later requests from the optimal edge
        assert with_waiting["served_by_optimal_later"]
        assert without["served_by_optimal_later"]


class TestAblationHybrid:
    def test_hybrid_docker_then_k8s(self):
        table = ablations.ablation_hybrid_docker_then_k8s()
        k8s_only = table.row_for("strategy", "k8s_only")
        hybrid = table.row_for("strategy", "hybrid_docker_then_k8s")
        # "we can have both fast initial response (Docker) and automated
        # cluster management (Kubernetes)" — Discussion section
        assert hybrid["first_request"] < 1.0 < k8s_only["first_request"]
        assert hybrid["managed_by"] == "kubernetes"
        assert hybrid["steady_request"] == pytest.approx(
            k8s_only["steady_request"], rel=0.5)


class TestAblationSchedulers:
    def test_scheduler_policies(self):
        table = ablations.ablation_schedulers()
        proximity = table.row_for("scheduler", "proximity")
        round_robin = table.row_for("scheduler", "round-robin")
        load_aware = table.row_for("scheduler", "load-aware")
        # proximity keeps everything at the near edge
        assert proximity["far_deployments"] == 0
        # round-robin and load-aware spread deployments
        assert round_robin["far_deployments"] > 0
        assert load_aware["far_deployments"] > 0
        # spreading to the far edge costs latency vs. pure proximity
        assert round_robin["median"] >= proximity["median"]


class TestAblationRegistry:
    def test_registry_and_cache_effects(self):
        table = ablations.ablation_registry_cache()
        rows = {row["scenario"]: row["pull_s"] for row in table.rows}
        cold = rows["nginx, public, cold"]
        private = rows["nginx, private, cold"]
        warm = rows["nginx twice (warm cache)"]
        shared = rows["nginx then nginx+py (shared base)"]
        assert private < cold
        assert warm == 0.0  # fully cached: free
        # nginx+py after nginx only pulls the env-writer image
        assert shared < cold


# ------------------------------------------- extensions (future-work, E1–E5)


class TestE1Serverless:
    def test_e1_serverless_vs_containers(self):
        table = extensions.e1_serverless_vs_containers()
        for row in table.rows:
            # WASM cold start beats both container paths on every service
            assert row["wasm_s"] < row["docker_s"] < row["k8s_s"]
        web = table.row_for("service", "nginx")
        resnet = table.row_for("service", "resnet")
        # tens-of-ms vs hundreds-of-ms for web services...
        assert web["wasm_s"] < 0.05
        assert web["docker_s"] > 0.3
        # ... but model loading does not go away with the runtime
        assert resnet["wasm_s"] > 1.0

    def test_e1b_artifact_sizes(self):
        table = extensions.e1_artifact_sizes()
        nginx = table.row_for("service", "nginx")
        assert nginx["module_bytes"] < nginx["image_bytes"] / 50
        # the assembler server is the counter-example: its native binary is
        # smaller than any WASM module
        asm = table.row_for("service", "asm")
        assert asm["image_bytes"] < asm["module_bytes"]


class TestE2Mobility:
    def test_e2_follow_me_handover(self):
        table = extensions.e2_follow_me_handover()
        rows = {row["phase"]: row for row in table.rows}
        # before the move: served by edge A, warm path is ~1 ms
        assert rows["at zone A (warm)"]["served_by"] == "docker-egs"
        assert rows["at zone A (warm)"]["request_s"] < 0.01
        # stale flows keep pointing at edge A after the move
        assert rows["moved to B, no handover"]["served_by"] == "docker-egs"
        # the handover re-dispatches to the now-nearest edge B
        assert rows["moved to B, after handover"]["served_by"] == "docker-b"


class TestE4Hierarchy:
    def test_e4_hierarchical_escape(self):
        table = extensions.e4_hierarchical_escape()
        flat = table.row_for("scheduler", "proximity")
        hier = table.row_for("scheduler", "hierarchical")
        # flat proximity sends the tight-budget first request to the cloud
        assert flat["first_served_by"] == "cloud"
        # the hierarchy keeps it at the edge (locality/bandwidth argument)
        assert hier["edge_local"] is True
        assert hier["first_served_by"] == "docker-agg"
        # both converge to the optimal access edge for later requests
        assert flat["later_served_by"] == hier["later_served_by"] == "docker-egs"
        # the price of locality: a pull-free cold start vs a cloud RTT
        assert hier["first_request_s"] > flat["first_request_s"]
        assert hier["first_request_s"] < 1.0


class TestE5Autoscaling:
    def test_e5_autoscaling_under_load(self):
        table = extensions.e5_autoscaling_under_load()
        off = table.row_for("autoscaler", "off")
        on = table.row_for("autoscaler", "on")
        # without the HPA the single pod's queue explodes under overload
        assert off["median_s"] > 5.0
        # with it, median stays near the 180 ms service time
        assert on["median_s"] < 0.5
        assert on["peak_replicas"] >= 2
        assert on["scale_events"] >= 1


class TestE3Prediction:
    def test_e3_proactive_deployment(self):
        table = extensions.e3_proactive_deployment()
        reactive = table.row_for("mode", "reactive")
        proactive = table.row_for("mode", "proactive")
        # prediction converts cold waits into warm hits
        assert proactive["cold_requests"] < reactive["cold_requests"]
        assert proactive["median_s"] < reactive["median_s"] / 10
        assert proactive["predeployments"] > 0
        # reactive mode: every periodic request is a cold start
        assert reactive["cold_requests"] >= 7


# ------------------------------------------------ robustness (docs/faults.md)


class TestR1Availability:
    def test_r1_availability_under_pull_failures(self):
        table = robustness.r1_availability_vs_pull_failures()
        by_rate = {row["pull_fail_rate"]: row for row in table.rows}

        for row in table.rows:
            # guaranteed disposition: nobody hangs, ≥99% answered
            assert row["hung"] == 0
            assert row["availability"] >= 0.99
            assert row["p99_s"] >= row["p50_s"]
        # the fault plane really fires: retries grow with the injected rate
        retries = [row["retries"] for row in table.rows]
        assert retries == sorted(retries)
        assert by_rate["0.00"]["retries"] == 0
        assert by_rate["0.00"]["gave_up"] == 0
        assert by_rate["0.10"]["retries"] > 0
        # and retrying costs tail latency, not availability
        assert by_rate["0.10"]["availability"] >= 0.99
        assert by_rate["0.20"]["p99_s"] > by_rate["0.00"]["p99_s"]


class TestR2CircuitBreaker:
    def test_r2_breaker_beats_no_breaker_on_p99(self):
        table = robustness.r2_breaker_outage_ablation()
        by = {row["breaker"]: row for row in table.rows}

        # every request answered either way — the breaker trades *where*
        # requests go during the outage, never whether they are answered
        for row in table.rows:
            assert row["hung"] == 0
        assert by["on"]["answered"] == by["off"]["answered"]
        # the breaker actually tripped (and only exists when enabled)
        assert by["on"]["breaker_opens"] >= 1
        assert by["off"]["breaker_opens"] == 0
        # without it, the engine burns retries for the whole outage
        assert by["off"]["retries"] > by["on"]["retries"]
        assert by["off"]["gave_up"] > by["on"]["gave_up"]
        # the headline: the breaker wins the tail
        assert by["on"]["p99_s"] < by["off"]["p99_s"]
