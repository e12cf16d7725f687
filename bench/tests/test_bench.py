"""Tests of the benchmark's own code: statistics, spans, op lists, failures."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import loop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile -------------------------------------------------------

@pytest.mark.parametrize("n, pct, index", [
    (11, 9, 0), (12, 16, 1), (16, 37, 5), (20, 50, 9), (100, 90, 89),
    (101, 90, 90), (1000, 99, 989), (5000, 99, 4949),
])
def test_tail_rank_leaves_ten_samples_beyond(n, pct, index):
    assert loop.tail_rank(n) == (pct, index)
    assert n - 1 - index >= loop.TAIL_BEYOND
    # one percentile higher would leave fewer than ten beyond
    higher = -(-(pct + 1) * n // 100) - 1
    assert n - 1 - higher < loop.TAIL_BEYOND


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_rank_undefined_below_eleven_samples(n):
    assert loop.tail_rank(n) is None


def test_summary_tail_reads_the_sorted_samples():
    s = loop.Summary(attempted=20, failed=0, samples=list(range(20, 0, -1)),
                     wall_s=10.0)
    assert s.tail == (50, 10)
    assert s.p50 == 10.5
    assert s.ops_per_s == 2.0


# -- self time -------------------------------------------------------------

def _span(name, parent, start, end, count=1, busy=None):
    return tracing.Span(name, parent, "op", start, end, count, busy)


def test_self_time_is_span_minus_union_of_children():
    spans = [
        _span("cli.op", -1, 0.0, 10.0),
        _span("gates.execute", 0, 1.0, 3.0),
        _span("gates.execute", 0, 2.0, 5.0),    # overlaps the first child
        _span("gates.execute", 0, 8.0, 12.0),   # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_folded_children_count_their_busy_time():
    spans = [
        _span(tracing.PROPAGATE, -1, 0.0, 10.0),
        _span("hilbert.partial_trace", 0, 1.0, 2.0),
        _span(tracing.MATVEC, 0, 2.0, 9.0, count=500, busy=4.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 1.0 - 4.0)
    assert selfs[2] == pytest.approx(4.0)


def test_union_length_merges_overlaps_and_drops_empty():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert tracing.union_length([]) == 0


# -- op lists --------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_pure_function_of_workload_and_seed(workload):
    a = [workloads.make_block(workload, 7, b) for b in range(3)]
    b = [workloads.make_block(workload, 7, b) for b in range(3)]
    assert a == b
    assert workloads.digest(a[0]) == workloads.digest(b[0])
    assert workloads.digest(a[0]) != workloads.digest(
        workloads.make_block(workload, 8, 0))


def _mix(ops):
    return sorted((op.get("name"), op.get("mode"), op.get("n"),
                   tuple(s for s in op["sets"]
                         if s.startswith(("drive.alpha_re", "wstate.")))
                   ) for op in ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_of_one_parity_have_the_same_mix(workload):
    for parity in (0, 1):
        first = _mix(workloads.make_block(workload, 1, parity))
        for seed, block in ((1, parity + 2), (2, parity), (99, parity + 4)):
            assert _mix(workloads.make_block(workload, seed, block)) == first


def test_preset_strata_have_equal_weight():
    ops = workloads.make_block("presets", 5, 0) + \
        workloads.make_block("presets", 5, 1)
    resonant = [(op["name"], op["sets"][0]) for op in ops
                if op["name"].startswith("fig2a")]
    assert sorted(resonant) == sorted(
        (name, f"drive.alpha_re={alpha!r}")
        for name in ("fig2a", "fig2a_strong") for alpha in workloads.ALPHAS)
    others = [op["name"] for op in ops if not op["name"].startswith("fig2a")]
    assert sorted(others) == sorted(
        ["fig2b", "fig3", "s1_bragg", "s2_ramannath"] * 2)


def test_wstate_strata_have_equal_weight():
    ops = workloads.make_block("wstate_register", 5, 0)
    assert sorted((op["mode"], op["n"]) for op in ops) == [
        ("analog", 6), ("analog", 7), ("analog", 8), ("digital", 3)]


@pytest.mark.parametrize("workload", ("presets", "wstate_register"))
def test_no_two_ops_share_a_hamiltonian(workload):
    ops = [op for b in range(4) for op in workloads.make_block(workload, 3, b)]
    # every op carries its own jittered coupling or photon energy
    keys = [tuple(s for s in op["sets"] if s.startswith(
        ("drive.photon_energy_eV", "mode."))) for op in ops]
    assert all(keys) and len(set(keys)) == len(keys)


def test_chebyshev_is_the_preset_draw_on_the_fixed_step_route():
    presets = workloads.make_block("presets", 4, 0)
    cheb = workloads.make_block("chebyshev", 4, 0)
    assert [workloads.route(op) for op in presets] == ["eigen"] * len(presets)
    assert [workloads.route(op) for op in cheb] == ["fixed_step"] * len(cheb)
    assert [workloads.other_route(op) for op in cheb] == [
        workloads.with_method(op, "eigen") for op in presets]


def test_disagreement_uses_relative_tolerance_and_rejects_nan():
    base = {"fidelity": 0.99, "leakage_final": 1e-3, "T_fs": 1.0,
            "photon_mean_final": 100.0, "regime": "BRAGG"}
    assert workloads.disagreement(base, dict(base, T_fs=2.0)) is None
    assert workloads.disagreement(
        base, dict(base, photon_mean_final=100.0 + 5e-7)) is None
    assert "photon_mean" in workloads.disagreement(
        base, dict(base, photon_mean_final=100.0 + 2e-6))
    assert "fidelity" in workloads.disagreement(
        base, dict(base, fidelity=float("nan")))
    assert workloads.disagreement({"T_fs": 1.0}, {"T_fs": 1.0}) is not None


# -- failures ----------------------------------------------------------------

class _Record:
    def __init__(self, value):
        self.metrics = {"fidelity": value}


def test_failed_ops_count_in_fail_ratio_and_never_as_latency():
    ticks = iter(range(1000))
    ops = [{"id": str(k)} for k in range(4)]

    def call(op):
        if op["id"] == "1":
            raise ZeroDivisionError("forced")
        return _Record(0.5)

    results, wall = loop.run_closed_loop(lambda b: ops, call, 0.0,
                                         clock=lambda: next(ticks))
    # re-runs of ops 0, 2 and 3: op 2 disagrees, op 3 raises on its re-run
    others = [({"fidelity": 0.5}, None), ({"fidelity": 0.6}, None),
              (None, "PropagationError")]
    loop.verify(results, others,
                lambda rec, other: workloads.disagreement(rec.metrics, other))
    summary = loop.summarize(results, wall)
    assert [r.error for r in results] == [
        None, "ZeroDivisionError", "mismatch: fidelity: 0.5 vs 0.6",
        "check raised PropagationError"]
    assert (summary.attempted, summary.failed) == (4, 3)
    assert summary.samples == [results[0].seconds]
    assert summary.ops_per_s == 1 / wall


def test_loop_runs_whole_blocks_until_the_time_is_up():
    now = [0.0]

    def call(op):
        now[0] += 1.0

    results, wall = loop.run_closed_loop(
        lambda b: [{"id": f"{b}.{k}"} for k in range(3)], call, 4.0,
        clock=lambda: now[0])
    assert [r.op["id"] for r in results][-1] == "1.2"
    assert len(results) == 6 and wall == 6.0


def test_loop_runs_whole_blocks_until_min_ops_have_run():
    now = [0.0]

    def call(op):
        now[0] += 1.0

    results, wall = loop.run_closed_loop(
        lambda b: [{"id": f"{b}.{k}"} for k in range(5)], call, 1.0,
        clock=lambda: now[0], min_ops=24)
    assert len(results) == 25 and wall == 25.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_min_ops_are_whole_blocks_and_put_the_tail_above_the_median(workload):
    n = workloads.MIN_OPS
    assert n % len(workloads.make_block(workload, 1, 0)) == 0
    s = loop.Summary(attempted=n, failed=0,
                     samples=[float(k) for k in range(n)], wall_s=1.0)
    assert s.tail[1] > s.p50


# -- computed matvec bytes -------------------------------------------------

class _Operator:
    def __init__(self, dimension, nnz):
        self.dimension, self.nnz = dimension, nnz


def test_matvec_bytes_follow_the_dense_and_sparse_paths():
    from feqo_lab.hamiltonian import _DENSE_LIMIT
    small = _Operator(20, 60)
    assert tracing._matvec_bytes(small) == 16 * 20 * 20 + 32 * 20
    edge = _Operator(_DENSE_LIMIT, 5)
    assert tracing._matvec_bytes(edge) == 16 * _DENSE_LIMIT ** 2 + \
        32 * _DENSE_LIMIT
    large = _Operator(_DENSE_LIMIT + 1, 1000)
    assert tracing._matvec_bytes(large) == 20 * 1000 + \
        4 * (_DENSE_LIMIT + 2) + 32 * (_DENSE_LIMIT + 1)


# -- tracing against the real package ------------------------------------

_CHEAP_OPS = [
    {"id": "a", "call": "wstate", "mode": "analog", "n": 3,
     "sets": ["propagator.method=fixed_step"]},
    {"id": "b", "call": "experiment", "name": "fig2a_strong",
     "sets": ["drive.alpha_re=2.0"]},
    {"id": "c", "call": "wstate", "mode": "digital", "n": 3,
     "sets": ["mode.E_z_tilde_V_per_m=1.2e7"]},
]
_EXACT = ("hamiltonian.matvecs", "hamiltonian.eigh_calls", "propagate.samples",
          "gates.segments_propagated", "cli.bytes_written",
          "hilbert.entropy_calls", "hamiltonian.builds")


def _traced_counts(out: Path):
    import feqo_lab.cli.experiments as experiments
    from run import Program, traced_pass
    results, _, tracer = traced_pass(Program(experiments, out), _CHEAP_OPS)
    assert [r.error for r in results] == [None] * len(_CHEAP_OPS)
    return tracing.layer_metrics(tracer.spans)


def test_traced_counts_repeat_exactly_and_wrappers_come_off(tmp_path):
    import feqo_lab
    from feqo_lab import hamiltonian, hilbert
    from feqo_lab.cli import experiments
    # the package binds the name `propagate` to the function
    propagate = sys.modules["feqo_lab.propagate"]
    before = (propagate.propagate, experiments.propagate_state,
              feqo_lab.partial_trace,
              vars(hamiltonian.HermitianOperator)["matvec"])
    # summaries echo their file paths, so both runs use same-length dirs
    first = _traced_counts(tmp_path / "run1")
    second = _traced_counts(tmp_path / "run2")
    assert {k: first[k] for k in _EXACT} == {k: second[k] for k in _EXACT}
    assert first["hamiltonian.matvecs"] > 0
    assert first["propagate.matvecs_per_sample"] > 0
    assert first["gates.segments_propagated"] >= 3
    assert first["hamiltonian.eigh_dim_max"] >= 8
    assert before == (propagate.propagate, experiments.propagate_state,
                      feqo_lab.partial_trace,
                      vars(hamiltonian.HermitianOperator)["matvec"])
    assert hilbert.partial_trace is feqo_lab.partial_trace
