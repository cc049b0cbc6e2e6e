"""Client updates, weighted aggregation, reducer modes, and the round loop."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsmell import federation
from fedsmell.config import ExperimentConfig
from fedsmell.data import (concat_datasets, domain_shift, extract_chunks,
                           partition_chunks, synth_generate)
from fedsmell.errors import NumericError
from fedsmell.federation import (ClientNode, FederationTopology, ModelUpdate,
                                 RoundConfig, RoundLog, client_update, combiner_aggregate,
                                 iter_rounds, reducer_reduce, sample_clients,
                                 weights_checksum)
from fedsmell.experiments import write_rounds_csv
from fedsmell.metrics import evaluate_model
from fedsmell.nn import (Hyperparams, PARAM_COUNT, adam_update, init_params,
                         loss_and_gradient, unflatten_params)
from fedsmell.seeds import SAMPLING_SLOT, derive_seed
from util import dead_slot_mask, grad_buffer, random_dataset, run_rounds


def small_client(n=20, n_pos=8, seed=0, client_id=0, combiner_id=0, **hyper):
    data = random_dataset(n, n_pos, seed=seed, name=f"client{client_id}")
    return ClientNode(client_id, data, Hyperparams(**hyper), combiner_id)


def test_weights_checksum_hashes_a_list_like_its_array():
    values = np.zeros(PARAM_COUNT)
    assert weights_checksum(values) == weights_checksum(values.tolist())


# ------------------------------------------------------------ client_update

def test_client_update_single_batch_takes_exactly_one_step():
    client = small_client(n=12, batch_size=32, local_epochs=1)
    start = init_params(0)
    update = client_update(client, start, update_seed=5)

    # Reproduce the round-scoped shuffle: summation order matters bitwise.
    order = np.random.default_rng(5).permutation(12)
    params = unflatten_params(start)
    _, grad = loss_and_gradient(client.local_data.features[order],
                                client.local_data.labels[order], params, grad_buffer())
    expected = start.copy()
    adam_update(expected, grad, np.zeros(PARAM_COUNT), np.zeros(PARAM_COUNT), 1, 0.001)
    assert np.array_equal(update.weights, expected)
    assert update.sample_count == 12


def test_client_update_step_count_continues_across_local_epochs():
    client = small_client(n=20, seed=3, batch_size=8, local_epochs=3)
    start = init_params(4)
    update = client_update(client, start, update_seed=7)

    # Hand loop: one shuffle, batches of 8, 8 and 4, moments carried over.
    order = np.random.default_rng(7).permutation(20)
    values = start.copy()
    m, v = np.zeros(PARAM_COUNT), np.zeros(PARAM_COUNT)
    step = 0
    for _ in range(3):
        for begin in range(0, 20, 8):
            batch = order[begin:begin + 8]
            _, grad = loss_and_gradient(client.local_data.features[batch],
                                        client.local_data.labels[batch],
                                        unflatten_params(values), grad_buffer())
            step += 1
            adam_update(values, grad, m, v, step, 0.001)
    assert step == 9
    assert np.array_equal(update.weights, values)


def test_client_update_walks_its_batches_once_per_epoch(monkeypatch):
    # No list of batches * local_epochs: a huge epoch count trains until
    # stopped, here by the third Adam step.
    class Stop(Exception):
        pass

    calls = []

    def counting_adam(*args):
        calls.append(args[4])
        if len(calls) == 3:
            raise Stop
        adam_update(*args)

    client = small_client(n=20, batch_size=16, local_epochs=10**20)
    monkeypatch.setattr(federation, "adam_update", counting_adam)
    with pytest.raises(Stop):
        client_update(client, init_params(0), update_seed=1)
    assert calls == [1, 2, 3]


def test_client_update_zero_learning_rate_is_identity():
    client = small_client(n=40, learning_rate=0.0)
    start = init_params(1)
    update = client_update(client, start, update_seed=2)
    assert np.array_equal(update.weights, start)


def test_client_update_deterministic_for_identical_clients():
    a = small_client(n=33, seed=4, client_id=0)
    b = small_client(n=33, seed=4, client_id=1)
    start = init_params(2)
    ua = client_update(a, start, update_seed=9)
    ub = client_update(b, start, update_seed=9)
    assert np.array_equal(ua.weights, ub.weights)
    assert ua.sample_count == ub.sample_count


def test_client_update_leaves_broadcast_weights_and_dead_slots_untouched():
    client = small_client(n=70, seed=6, batch_size=8, local_epochs=2)
    broadcast = np.random.default_rng(6).standard_normal(PARAM_COUNT) * 0.3
    before = broadcast.copy()
    update = client_update(client, broadcast, update_seed=3)
    assert np.array_equal(broadcast, before)
    dead = dead_slot_mask()
    assert np.array_equal(update.weights[dead], before[dead])
    assert not np.array_equal(update.weights[~dead], before[~dead])


def test_client_update_non_finite_weights_raise_numeric_error_naming_client():
    # With float errors ignored, an overflow leaves non-finite weights behind:
    # a huge step, or broadcast weights near the float limit. A nan cannot
    # reach the data, which Dataset checks when built and keeps read-only.
    cases = ((small_client(n=40, client_id=7, learning_rate=1e300), init_params(0)),
             (small_client(n=40, client_id=8), np.full(PARAM_COUNT, 1e300)))
    with np.errstate(all="ignore"):
        for client, weights in cases:
            with pytest.raises(NumericError, match=f"^client {client.id}: "):
                client_update(client, weights, update_seed=1)


def test_run_federation_names_the_round_of_a_float_fault():
    # The README's library example with a huge learning rate, under numpy's
    # default float settings: the round stops at the overflow and names it.
    clients = tuple(small_client(n=40, seed=i, client_id=i, combiner_id=i // 2,
                                 learning_rate=1e300) for i in range(4))
    topology = FederationTopology(combiners=(0, 1), clients=clients)
    with np.errstate(over="warn", invalid="warn", divide="warn", under="ignore"):
        with pytest.raises(NumericError, match="^round 1: overflow"):
            for _ in iter_rounds(topology, RoundConfig(rounds=2, seed=7),
                                 random_dataset(60, 30, seed=9)):
                pass


# ------------------------------------------------------- combiner_aggregate

def test_combiner_weighted_mean_worked_example():
    updates = [ModelUpdate(0, np.zeros(6), 1), ModelUpdate(1, np.full(6, 4.0), 3)]
    assert np.array_equal(combiner_aggregate(updates), np.full(6, 3.0))


def test_combiner_equal_counts_is_plain_mean():
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(50) for _ in range(4)]
    updates = [ModelUpdate(i, v, 11) for i, v in enumerate(vectors)]
    assert np.allclose(combiner_aggregate(updates), np.mean(vectors, axis=0), atol=1e-12)


def test_combiner_matches_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    updates = [ModelUpdate(i, rng.standard_normal(30), int(rng.integers(1, 500)))
               for i in range(7)]
    total = sum(u.sample_count for u in updates)
    expected = np.array([
        math.fsum(u.sample_count / total * u.weights[j] for u in updates)
        for j in range(30)
    ])
    assert np.max(np.abs(combiner_aggregate(updates) - expected)) <= 1e-12


def test_combiner_single_update_is_bitwise_identity():
    weights = np.random.default_rng(2).standard_normal(PARAM_COUNT)
    weights[0] = -0.0
    out = combiner_aggregate([ModelUpdate(3, weights, 17)])
    assert np.array_equal(out, weights)
    assert np.signbit(out[0])


def test_combiner_order_invariance():
    rng = np.random.default_rng(3)
    updates = [ModelUpdate(i, rng.standard_normal(12), int(rng.integers(1, 9)))
               for i in range(5)]
    forward = combiner_aggregate(updates)
    assert np.array_equal(combiner_aggregate(updates[::-1]), forward)
    assert np.array_equal(combiner_aggregate([updates[2], updates[0], updates[4],
                                              updates[1], updates[3]]), forward)


def plain_reduce(updates):
    return reducer_reduce([u.weights for u in updates], None, t=1, mode="plain")


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=8),
       st.sampled_from([combiner_aggregate, plain_reduce]))
def test_combiner_output_inside_input_envelope(seed, k, mean_of):
    # Both tiers: the combiner's weighted mean and the reducer's plain mean.
    rng = np.random.default_rng(seed)
    updates = [ModelUpdate(i, rng.uniform(-1, 1, 10) * 10.0 ** rng.integers(-3, 3),
                           int(rng.integers(1, 1000)))
               for i in range(k)]
    out = mean_of(updates)
    stacked = np.array([u.weights for u in updates])
    assert np.all(out >= stacked.min(axis=0))
    assert np.all(out <= stacked.max(axis=0))


@pytest.mark.parametrize("k", range(1, 9))
def test_both_tiers_return_identical_models_bit_for_bit(k):
    model = init_params(k)
    expected = model.tobytes()
    copies = [model.copy() for _ in range(k)]
    updates = [ModelUpdate(i, w, 10 + i) for i, w in enumerate(copies)]
    assert combiner_aggregate(updates).tobytes() == expected
    assert reducer_reduce(copies, model, t=3, mode="plain").tobytes() == expected
    assert reducer_reduce(copies, model, t=3, mode="smoothed").tobytes() == expected


# ------------------------------------------------------------ reducer_reduce

def test_reducer_smoothed_first_round_returns_mean():
    models = [np.full(4, 2.0), np.full(4, 6.0)]
    prev = np.full(4, -100.0)
    assert np.array_equal(reducer_reduce(models, prev, t=1, mode="smoothed"), np.full(4, 4.0))


def test_reducer_single_combiner_plain_is_identity():
    model = np.random.default_rng(4).standard_normal(16)
    out = reducer_reduce([model], np.zeros(16), t=3, mode="plain")
    assert np.array_equal(out, model)


def test_reducer_smoothed_matches_scalar_streaming_oracle():
    rng = np.random.default_rng(5)
    length = 6
    global_vec = rng.standard_normal(length)
    oracle = global_vec.copy()
    for t in range(1, 40):
        mean = rng.standard_normal(length)
        global_vec = reducer_reduce([mean], global_vec, t=t, mode="smoothed")
        for j in range(length):
            oracle[j] = oracle[j] + (mean[j] - oracle[j]) / t
        assert np.max(np.abs(global_vec - oracle)) <= 1e-12


def test_reducer_smoothed_contracts_toward_constant_target():
    target = np.array([3.0, -1.5, 0.25])
    current = np.array([10.0, 10.0, 10.0])
    prev_gap = np.abs(current - target)
    for t in range(1, 30):
        current = reducer_reduce([target.copy()], current, t=t, mode="smoothed")
        gap = np.abs(current - target)
        assert np.all(gap <= prev_gap)
        prev_gap = gap
    assert np.all(prev_gap < 2.5)


# ------------------------------------------------------------ sample_clients

def make_topology(n_clients=10, per_combiner=5, **hyper):
    clients = tuple(
        small_client(n=16, n_pos=6, seed=10 + i, client_id=i,
                     combiner_id=i // per_combiner, **hyper)
        for i in range(n_clients)
    )
    combiner_ids = tuple(sorted({c.combiner_id for c in clients}))
    return FederationTopology(combiner_ids, clients)


def test_sample_clients_full_participation_sorted():
    topo = make_topology()
    assert sample_clients(topo, 1.0, round_seed=0) == list(range(10))


def test_sample_clients_fraction_count_and_determinism():
    topo = make_topology()
    picked = sample_clients(topo, 0.2, round_seed=42)
    assert len(picked) == 2
    assert picked == sorted(picked)
    assert sample_clients(topo, 0.2, round_seed=42) == picked
    assert sample_clients(topo, 0.05, round_seed=1) != [] and \
        len(sample_clients(topo, 0.05, round_seed=1)) == 1


# --------------------------------------------------------------- topologies

def test_client_and_topology_refuse_assignment_after_construction():
    topology = make_topology(n_clients=2, per_combiner=1)
    client = topology.clients[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        topology.clients = (small_client(client_id=5),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        client.combiner_id = 1.5
    assert topology.client_by_id(0) is client and client.combiner_id == 0


# --------------------------------------------------------------- iter_rounds

def test_single_client_federation_matches_repeated_local_training():
    client = small_client(n=48, n_pos=20, seed=6)
    topo = FederationTopology((0,), (client,))
    test_set = random_dataset(30, 12, seed=7, name="test")
    config = RoundConfig(rounds=3, client_fraction=1.0, seed=21, reducer_mode="plain")
    logs, final = run_rounds(topo, config, test_set)

    weights = init_params(config.seed)
    for t in range(1, config.rounds + 1):
        weights = client_update(client, weights, derive_seed(config.seed, t, client.id)).weights
    assert np.array_equal(final, weights)
    assert len(logs) == 3
    assert logs[-1].participants == (0,)


def test_zero_learning_rate_freezes_round_metrics():
    topo = make_topology(n_clients=4, per_combiner=2, learning_rate=0.0)
    test_set = random_dataset(40, 16, seed=8, name="test")
    logs, final = run_rounds(topo, RoundConfig(rounds=4, seed=3), test_set)
    first = logs[0]
    for log in logs[1:]:
        assert log.report == first.report
        assert log.weights_checksum == first.weights_checksum
    assert np.array_equal(final, init_params(3))


def test_an_experiment_config_drives_the_rounds_and_clients_like_its_parts():
    # The config itself serves as each client's Hyperparams and as the RoundConfig.
    test_set = random_dataset(36, 14, seed=9, name="test")
    cfg = ExperimentConfig(kind="federated", datasets=("a.csv",), rounds=3, client_fraction=0.5,
                           seed=12, reducer_mode="smoothed", learning_rate=0.01, batch_size=8,
                           local_epochs=2)
    parts = make_topology(n_clients=4, per_combiner=2, learning_rate=0.01, batch_size=8,
                          local_epochs=2)
    whole = FederationTopology(parts.combiners,
                               tuple(dataclasses.replace(c, hyper=cfg) for c in parts.clients))
    logs_a, final_a = run_rounds(whole, cfg, test_set)
    logs_b, final_b = run_rounds(
        parts, RoundConfig(rounds=3, client_fraction=0.5, seed=12, reducer_mode="smoothed"),
        test_set)
    assert logs_a == logs_b
    assert final_a.tobytes() == final_b.tobytes()


def test_federation_reproducible_logs():
    topo_a = make_topology(n_clients=4, per_combiner=2)
    topo_b = make_topology(n_clients=4, per_combiner=2)
    test_set = random_dataset(36, 14, seed=9, name="test")
    config = RoundConfig(rounds=3, seed=12)
    logs_a, final_a = run_rounds(topo_a, config, test_set)
    logs_b, final_b = run_rounds(topo_b, config, test_set)
    assert [l.weights_checksum for l in logs_a] == [l.weights_checksum for l in logs_b]
    assert [l.report for l in logs_a] == [l.report for l in logs_b]
    assert np.array_equal(final_a, final_b)


def test_partial_participation_skips_empty_combiners():
    topo = make_topology(n_clients=6, per_combiner=3)
    test_set = random_dataset(40, 15, seed=1, name="test")
    logs, _ = run_rounds(topo, RoundConfig(rounds=6, client_fraction=0.34, seed=4), test_set)
    assert all(len(log.participants) == 2 for log in logs)
    # The sampled subset varies by round, including rounds where one
    # combiner receives no clients and sits the round out.
    assert len({log.participants for log in logs}) > 1
    one_sided = [log for log in logs
                 if len({cid // 3 for cid in log.participants}) == 1]
    assert one_sided, "expected at least one round handled by a single combiner"


@pytest.mark.parametrize("mode", ["plain", "smoothed"])
@pytest.mark.parametrize("combiners", [3, 5])
def test_federation_keeps_dead_slots_at_init_for_any_combiner_count(combiners, mode):
    topo = make_topology(n_clients=2 * combiners, per_combiner=2)
    test_set = random_dataset(30, 12, seed=3, name="test")
    config = RoundConfig(rounds=5, seed=8, reducer_mode=mode)
    _, final = run_rounds(topo, config, test_set)
    dead = dead_slot_mask()
    assert final[dead].tobytes() == init_params(config.seed)[dead].tobytes()


def test_round_holds_one_combiners_updates_and_none_while_scoring(monkeypatch):
    # 5 clients under 2 combiners (3 + 2), all sampled: a combiner's updates
    # are folded before the next combiner trains, and all are gone by scoring.
    refs, peaks = [], []
    alive = lambda: sum(ref() is not None for ref in refs)
    real_update, real_evaluate = federation.client_update, federation.evaluate_model

    def tracked_update(*args):
        update = real_update(*args)
        refs.append(weakref.ref(update))
        peaks.append(alive())
        return update

    def checked_evaluate(*args):
        assert alive() == 0, "client updates outlive the round's reduce"
        return real_evaluate(*args)

    monkeypatch.setattr(federation, "client_update", tracked_update)
    monkeypatch.setattr(federation, "evaluate_model", checked_evaluate)
    topo = make_topology(n_clients=5, per_combiner=3)
    test_set = random_dataset(30, 12, seed=4, name="test")
    logs, _ = run_rounds(topo, RoundConfig(rounds=2, seed=6), test_set)
    assert len(logs) == 2 and len(peaks) == 10
    assert max(peaks) == 3


def reference_federation(topology, config, test_set):
    """iter_rounds' oracle, in the round loop's old shape: train every
    sampled client, bucket the updates by combiner, fold the buckets in
    sorted combiner order, reduce, score and checksum."""
    values = init_params(config.seed)
    logs = []
    for t in range(1, config.rounds + 1):
        selected = sample_clients(topology, config.client_fraction,
                                  derive_seed(config.seed, t, SAMPLING_SLOT))
        by_combiner = {}
        for client_id in selected:
            client = topology.client_by_id(client_id)
            update = client_update(client, values, derive_seed(config.seed, t, client_id))
            by_combiner.setdefault(client.combiner_id, []).append(update)
        models = [combiner_aggregate(by_combiner[cid]) for cid in sorted(by_combiner)]
        values = reducer_reduce(models, values, t, config.reducer_mode)
        logs.append(RoundLog(t, weights_checksum(values), evaluate_model(values, test_set),
                             tuple(selected)))
    return logs, values


@st.composite
def federations(draw):
    """A topology whose combiners have arbitrary ids and whose clients have
    non-contiguous ids interleaved across the combiners, plus a round config."""
    combiner_ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
    client_ids = draw(st.lists(st.integers(0, 60), min_size=len(combiner_ids), max_size=9,
                               unique=True))
    owners = combiner_ids + draw(st.lists(st.sampled_from(combiner_ids),
                                          min_size=len(client_ids) - len(combiner_ids),
                                          max_size=len(client_ids) - len(combiner_ids)))
    owners = draw(st.permutations(owners))
    # Batch size 1 takes most of the time, so it is drawn rarely.
    hyper = Hyperparams(batch_size=draw(st.sampled_from([7, 32, 7, 32, 7, 32, 1])),
                        local_epochs=draw(st.integers(1, 2)))
    clients = []
    for client_id, owner in zip(client_ids, owners):
        n = draw(st.integers(10, 70))
        data = random_dataset(n, draw(st.integers(0, n)), seed=client_id)
        clients.append(ClientNode(client_id, data, hyper, owner))
    config = RoundConfig(rounds=draw(st.integers(1, 3)),
                         client_fraction=draw(st.sampled_from([0.3, 0.6, 1.0])),
                         seed=draw(st.integers(0, 2**16)),
                         reducer_mode=draw(st.sampled_from(["plain", "smoothed"])))
    return FederationTopology(tuple(combiner_ids), tuple(clients)), config


@settings(derandomize=True, max_examples=40)
@given(federations())
def test_federation_matches_the_reference_round_loop(federation_case):
    topology, config = federation_case
    test_set = random_dataset(40, 16, seed=99, name="test")
    logs, final = run_rounds(topology, config, test_set)
    expected_logs, expected = reference_federation(topology, config, test_set)
    assert final.tobytes() == expected.tobytes()
    assert logs == expected_logs


@pytest.mark.parametrize("stop", [1, 2, 3])
def test_a_caller_that_stops_after_round_k_holds_the_full_runs_first_k_rounds(stop):
    topo = make_topology(n_clients=4, per_combiner=2)
    test_set = random_dataset(30, 12, seed=5, name="test")
    config = RoundConfig(rounds=4, client_fraction=0.5, seed=10, reducer_mode="smoothed")
    full = [(log, weights.tobytes()) for log, weights in iter_rounds(topo, config, test_set)]
    taken = []
    for log, weights in iter_rounds(topo, config, test_set):
        taken.append((log, weights.tobytes()))
        if log.round == stop:
            break
    assert taken == full[:stop]


def test_the_caller_keeps_its_own_float_settings_between_rounds():
    # Each round's stage raises on float faults; the caller's loop body runs
    # outside it, under the settings the caller chose.
    topo = make_topology(n_clients=2, per_combiner=1)
    test_set = random_dataset(30, 12, seed=2, name="test")
    with np.errstate(all="ignore"):
        own = np.geterr()
        seen = [np.geterr() for _ in iter_rounds(topo, RoundConfig(rounds=3, seed=1), test_set)]
    assert seen == [own] * 3


def test_the_yielded_weights_are_read_only():
    # The next round broadcasts them and the smoothed reducer reads them as
    # the previous model, so a write by the caller would change the run.
    topo = make_topology(n_clients=4, per_combiner=2)
    test_set = random_dataset(30, 12, seed=5, name="test")
    config = RoundConfig(rounds=2, seed=3, reducer_mode="smoothed")
    untouched = [log.weights_checksum for log, _ in iter_rounds(topo, config, test_set)]
    seen = []
    for log, weights in iter_rounds(topo, config, test_set):
        with pytest.raises(ValueError, match="read-only"):
            weights *= 0.0
        seen.append(log.weights_checksum)
    assert seen == untouched


def test_federation_outperforms_best_single_client():
    # 10 heterogeneous clients vs. each client training alone, scored on a
    # pooled test set; the federated model must not trail the best loner by
    # more than 2 accuracy points within 30 rounds.
    hyper = Hyperparams()
    sources = [synth_generate(240, 0.5, domain_shift(m), seed=50 + i, name=f"s{i}")
               for i, m in enumerate((0.0, 3.0, 0.0))]
    chunks = []
    for source, k in zip(sources, (5, 1, 4)):
        chunks.extend(extract_chunks(source, partition_chunks(source, k, seed=3)))
    clients = tuple(ClientNode(i, chunk, hyper, 0 if i < 5 else 1)
                    for i, chunk in enumerate(chunks))
    topo = FederationTopology((0, 1), clients)
    test_set = concat_datasets("pool", [
        synth_generate(200, 0.5, domain_shift(m), seed=90 + i, name=f"t{i}")
        for i, m in enumerate((0.0, 3.0, 0.0))
    ])

    logs, _ = run_rounds(topo, RoundConfig(rounds=30, seed=5), test_set)
    federated_best = max(log.report.accuracy_pct for log in logs)

    best_single = 0.0
    for client in clients:
        weights = init_params(5)
        for t in range(1, 31):
            weights = client_update(client, weights, derive_seed(5, t, client.id)).weights
        best_single = max(best_single, evaluate_model(weights, test_set).accuracy_pct)
    assert federated_best >= best_single - 2.0


def test_write_round_csv_layout(tmp_path):
    topo = make_topology(n_clients=2, per_combiner=1)
    test_set = random_dataset(30, 12, seed=2, name="test")
    logs, _ = run_rounds(topo, RoundConfig(rounds=2, seed=1), test_set)
    path = tmp_path / "rounds.csv"
    write_rounds_csv(logs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,loss,accuracy,kappa,kappa_pct,roc_auc,participants"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[1].endswith("0;1")
