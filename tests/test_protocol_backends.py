"""Cross-protocol differential harness for the pluggable backend API.

Every registered coherence-protocol backend executes the *same* seeded
memory-operation stream. The stream is built so its final memory image is
interleaving-independent — each variable has exactly one writer core, and
the shared counter only sees commutative fetch-and-increments — which
makes the image a cross-protocol oracle: four different state machines,
four different interleavings, one answer.

Per-backend golden digests additionally pin each protocol's exact timing
and observation history, so a semantic drift in any one backend (or a
change to the event kernel's ordering) shows up as a digest diff even
when the final image stays right.

The pure transition helpers the rival backends are built from
(``pp_select``/``pp_next_phase``, ``hyb_should_enter``/``hyb_should_exit``
/``hyb_update_step``) get hypothesis property tests, and each new backend
gets a mutation smoke test proving the fuzz oracles catch a seeded bug in
*that backend's* machinery, shrunk to a replayable artifact.
"""

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.backend import (
    ProtocolBackend,
    backend_names,
    get_backend,
    registered_backends,
)
from repro.coherence.hybrid_update import (
    hyb_should_enter,
    hyb_should_exit,
    hyb_update_step,
)
from repro.coherence.phase_priority import pp_next_phase, pp_select
from repro.config.system import SystemConfig
from repro.engine.rng import DeterministicRng
from repro.system import Manycore
from repro.verify.artifacts import FailureArtifact, shrink_trial
from repro.verify.fuzz import execute_trial, generate_trial
from repro.verify.litmus import suite_configs
from repro.verify.mutations import MUTATIONS

NUM_CORES = 8
STREAM_SEED = 2024
OPS_PER_CORE = 40

#: Per-backend golden digests of the differential stream (cycles +
#: observation history + final image). Regenerate deliberately with
#: ``python -m tests.test_protocol_backends`` after an intentional
#: protocol change; an unexplained diff is a semantic regression.
GOLDEN_DIGESTS = {
    "baseline": "fa44e1c3c3a53d56",
    "hybrid_update": "5ba7ab55780cec2e",
    "phase_priority": "fba140cd4ff06a7a",
    "widir": "e48b6fffe34d5e5f",
}


# ------------------------------------------------------ the seeded stream


def differential_stream(
    seed: int = STREAM_SEED,
    num_cores: int = NUM_CORES,
    ops_per_core: int = OPS_PER_CORE,
):
    """One program per core: single-writer stores, shared loads, RMWs.

    Variable ``i`` is stored only by core ``i`` (ascending values, so the
    final value is fixed by program order); every core loads every
    variable; all cores hammer one fetch-and-increment counter. Final
    memory state is therefore protocol-independent.
    """
    rng = DeterministicRng(seed).split("differential")
    programs = []
    for core in range(num_cores):
        ops = []
        version = 0
        for _ in range(ops_per_core):
            roll = rng.randint(0, 99)
            if roll < 35:
                version += 1
                ops.append(("store", core, core * 1000 + version))
            elif roll < 80:
                ops.append(("load", rng.randint(0, num_cores - 1), None))
            else:
                ops.append(("rmw", num_cores, None))
        programs.append(ops)
    return programs


def expected_final_image(programs, num_cores=NUM_CORES):
    image = {}
    rmws = 0
    for core, ops in enumerate(programs):
        for kind, var, value in ops:
            if kind == "store":
                image[var] = value
            elif kind == "rmw":
                rmws += 1
    image[num_cores] = rmws
    return image


def _machine_for(backend_name: str, num_cores: int = NUM_CORES) -> Manycore:
    config = SystemConfig(
        num_cores=num_cores,
        protocol=backend_name,
        seed=9,
        check_interval=200,  # the online invariant monitor rides along
    )
    if get_backend(backend_name).uses_sharer_threshold:
        # Force the many-sharer mode: full pointers keep the sharer
        # vector precise (hybrid mode entry requires it) and threshold 1
        # triggers on the first contended upgrade.
        config = replace(
            config,
            directory=replace(
                config.directory,
                num_pointers=num_cores,
                max_wired_sharers=1,
            ),
        )
    return Manycore(config)


def run_differential(backend_name: str):
    """Drive the stream through one backend; returns (digest, image)."""
    programs = differential_stream()
    machine = _machine_for(backend_name)
    line_bytes = machine.config.l1.line_bytes
    addresses = {var: (0x40 + var) * line_bytes for var in range(NUM_CORES + 1)}
    observations = [[] for _ in range(NUM_CORES)]
    finished = [False] * NUM_CORES

    def step(core: int, index: int) -> None:
        if index >= len(programs[core]):
            finished[core] = True
            return
        kind, var, value = programs[core][index]
        if kind == "load":

            def on_load(v, core=core, index=index):
                observations[core].append(v)
                step(core, index + 1)

            machine.caches[core].load(addresses[var], on_load)
        elif kind == "store":
            machine.caches[core].store(
                addresses[var], value, lambda core=core, index=index: step(core, index + 1)
            )
        else:

            def on_rmw(old, core=core, index=index):
                observations[core].append(old)
                step(core, index + 1)

            machine.caches[core].rmw(addresses[var], on_rmw)

    for core in range(NUM_CORES):
        step(core, 0)
    machine.run()

    assert all(finished), f"{backend_name}: unfinished cores (liveness)"
    machine.check_coherence(quiescent=True)  # SWMR + value agreement

    image = {}

    def read_back(var: int, index: int) -> None:
        if var > NUM_CORES:
            return

        def on_value(v, var=var):
            image[var] = v
            read_back(var + 1, 0)

        machine.caches[0].load(addresses[var], on_value)

    read_back(0, 0)
    machine.run()
    machine.check_coherence(quiescent=True)

    witness = {
        "backend": backend_name,
        "cycles": machine.sim.now,
        "observations": observations,
        "image": sorted(image.items()),
    }
    digest = hashlib.sha256(
        json.dumps(witness, sort_keys=True).encode()
    ).hexdigest()[:16]
    return digest, image


# ----------------------------------------------------- differential tests


def test_registry_has_all_four_backends():
    assert {"baseline", "widir", "phase_priority", "hybrid_update"} <= set(
        backend_names()
    )
    for backend in registered_backends():
        assert isinstance(backend, ProtocolBackend)
        assert backend.readable_states and backend.writable_states
        assert backend.writable_states <= backend.readable_states
        assert set(backend.directory_kind_ids())  # vocabulary is interned


def test_unknown_backend_raises_with_known_set():
    with pytest.raises(ValueError, match="baseline"):
        get_backend("definitely_not_a_protocol")


@pytest.mark.parametrize("name", backend_names())
def test_differential_stream_matches_golden_digest(name):
    digest, image = run_differential(name)
    assert image == expected_final_image(differential_stream())
    assert name in GOLDEN_DIGESTS, f"pin a golden digest for {name}"
    assert digest == GOLDEN_DIGESTS[name], (
        f"{name} digest drifted: {digest} != {GOLDEN_DIGESTS[name]} — "
        "a semantic change to this backend (or to the event order)"
    )


def test_final_memory_images_identical_across_backends():
    images = {name: run_differential(name)[1] for name in backend_names()}
    reference_name = sorted(images)[0]
    reference = images[reference_name]
    for name, image in images.items():
        assert image == reference, (
            f"{name} final memory image diverges from {reference_name}"
        )


def test_litmus_matrix_covers_every_backend():
    protocols = {config.protocol for _, config in suite_configs(num_cores=8)}
    assert protocols == set(backend_names())


# ----------------------------------------- hypothesis: phase_priority fns


@given(st.integers(min_value=0, max_value=10**9))
def test_pp_next_phase_strictly_increases(phase):
    assert pp_next_phase(phase) == phase + 1


pp_entries = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(pp_entries)
def test_pp_select_returns_valid_index(entries):
    index = pp_select(entries)
    assert 0 <= index < len(entries)


@settings(max_examples=200, deadline=None)
@given(pp_entries)
def test_pp_select_notifications_preempt_requests(entries):
    index = pp_select(entries)
    non_requests = [i for i, (is_req, _, _) in enumerate(entries) if not is_req]
    if non_requests:
        assert index == non_requests[0]  # oldest notification first
    else:
        chosen = (entries[index][1], entries[index][2], index)
        for i, (_, phase, src) in enumerate(entries):
            assert chosen <= (phase, src, i)  # min (phase, src), FIFO ties


def test_pp_select_rejects_empty_queue():
    with pytest.raises(ValueError):
        pp_select([])


# ---------------------------------------- hypothesis: hybrid_update fns


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=64),
    st.booleans(),
    st.integers(min_value=1, max_value=64),
)
def test_hyb_should_enter_definition(num_targets, precise, threshold):
    expected = precise and num_targets + 1 > threshold
    assert hyb_should_enter(num_targets, precise, threshold) == expected
    # Monotone in the sharer count: more sharers never leaves the mode off
    # when fewer sharers would have turned it on.
    if hyb_should_enter(num_targets, precise, threshold):
        assert hyb_should_enter(num_targets + 1, precise, threshold)


@given(st.integers(min_value=0, max_value=64))
def test_hyb_should_exit_iff_one_or_fewer_sharers(count):
    assert hyb_should_exit(count) == (count <= 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=1, max_value=100),
)
def test_hyb_update_step_counts_and_trips(count, threshold):
    new_count, tripped = hyb_update_step(count, threshold)
    assert new_count == count + 1
    assert tripped == (new_count >= threshold)
    # Once tripped, further updates stay tripped.
    if tripped:
        assert hyb_update_step(new_count, threshold)[1]


# ------------------------------------- mutation smoke: the new backends


def test_new_mutations_registered_with_applicability():
    for name in ("pp_drop_deferred", "hyb_lost_upd_ack", "hyb_stale_update"):
        assert name in MUTATIONS
    assert MUTATIONS["pp_drop_deferred"].protocols == ("phase_priority",)
    assert MUTATIONS["hyb_lost_upd_ack"].protocols == ("hybrid_update",)


def test_mutation_pp_drop_deferred_caught_and_replayable(tmp_path):
    """A leaked deferred message deadlocks phase_priority: the queue
    drains with the dropped requesters' misses open, well inside the
    budget. The failure shrinks and replays from a serialized artifact."""
    spec = generate_trial(
        0, 3, num_cores=8, ops_per_core=30,
        protocol="phase_priority", check_interval=150,
    )
    spec.mutation = "pp_drop_deferred"
    spec.max_events = 10_000
    result = execute_trial(spec)
    assert not result.ok
    assert result.failure.startswith("deadlock: cores "), result.failure
    assert "] l1.mshr line=0x" in result.failure

    shrunk = shrink_trial(spec, max_checks=12)
    assert 0 < shrunk.total_ops <= spec.total_ops
    artifact = FailureArtifact(
        campaign="smoke", seed=0, trial_index=3, failure=result.failure,
        spec=shrunk, shrunk=True,
        original_ops=spec.total_ops, shrunk_ops=shrunk.total_ops,
    )
    loaded = FailureArtifact.load(artifact.save(tmp_path / "pp.json"))
    replay = execute_trial(loaded.spec)
    assert not replay.ok
    assert execute_trial(loaded.spec).failure == replay.failure


def test_mutation_hyb_stale_update_caught_and_replayable(tmp_path):
    """Skewed HybUpd values break value agreement; the failure shrinks
    and replays from a serialized artifact."""
    spec = generate_trial(
        0, 4, num_cores=8, ops_per_core=30,
        protocol="hybrid_update", check_interval=150,
    )
    spec.mutation = "hyb_stale_update"
    result = execute_trial(spec)
    assert not result.ok
    assert "divergent" in result.failure or "diverges" in result.failure

    shrunk = shrink_trial(spec, max_checks=40)
    assert 0 < shrunk.total_ops <= spec.total_ops
    artifact = FailureArtifact(
        campaign="smoke", seed=0, trial_index=4, failure=result.failure,
        spec=shrunk, shrunk=True,
        original_ops=spec.total_ops, shrunk_ops=shrunk.total_ops,
    )
    loaded = FailureArtifact.load(artifact.save(tmp_path / "hyb.json"))
    replay = execute_trial(loaded.spec)
    assert not replay.ok
    assert execute_trial(loaded.spec).failure == replay.failure


def test_mutation_hyb_lost_upd_ack_deadlocks():
    """A swallowed HybUpd leaves its locked write open at the home: the
    queue drains, and the verdict names the busy directory entry."""
    spec = generate_trial(
        0, 5, num_cores=8, ops_per_core=30,
        protocol="hybrid_update", check_interval=150,
        max_wired_sharers=1,
    )
    spec.mutation = "hyb_lost_upd_ack"
    spec.max_events = 10_000
    result = execute_trial(spec)
    assert not result.ok
    assert result.failure.startswith("deadlock: cores "), result.failure
    assert "] dir.busy line=0x" in result.failure


if __name__ == "__main__":  # pragma: no cover - golden regeneration aid
    for _name in backend_names():
        print(f'    "{_name}": "{run_differential(_name)[0]}",')
