import json
from pathlib import Path

import numpy as np
import pytest

from lgbg import autograd as ag
from lgbg import model as model_module
from lgbg.config import TrainConfig
from lgbg.embeddings import EmbeddingTable
from lgbg.errors import NumericError, ValidationError
from lgbg.gnn import (GnnParams, batch_graphs, edge_embeddings, graph_forward,
                      initial_states, local_graph_forward, message_passing_layer,
                      semantic_pool, structural_pool)
from lgbg.graphs import (HETEROGENEOUS, HOMOGENEOUS, GlobalSample, GraphEdge,
                         LocalContextGraph)
from lgbg.model import Model
from lgbg.streams import ACTIVITY, AUDIO, LOCATION
from lgbg.synth import ScenarioSpec, generate
from lgbg.temporal import span_attention
from lgbg.training import evaluate, node_variance_loss, run_protocol, split_protocol

from conftest import day_graph, ev
from reference import rows, tanh, total, vector

DATA = Path(__file__).parent / "data"


def mixed_graph(vocab, table):
    """5-node 3-stream graph with both edge kinds and varied weights, whose
    embedding rows `table` holds."""
    table.check_rows(vocab)
    streams = {
        ACTIVITY: [ev(ACTIVITY, "walking", 0, 3600), ev(ACTIVITY, "stationary", 3600, 9000),
                   ev(ACTIVITY, "walking", 9000, 12600)],
        AUDIO: [ev(AUDIO, "voice", 0, 5000), ev(AUDIO, "silence", 5400, 12000)],
        LOCATION: [ev(LOCATION, "dorm", 0, 8000), ev(LOCATION, "library", 8200, 12600)],
    }
    return day_graph(streams, vocab)


def dense_layer_oracle(states, graph, layer, nonlinear):
    """Straight per-node evaluation of the update equations."""
    nodes = sorted(range(len(graph.nodes)),
                   key=lambda i: (graph.nodes[i].stream, graph.nodes[i].concept))
    remap = {old: new for new, old in enumerate(nodes)}
    n = len(nodes)
    incoming = {HOMOGENEOUS: [[] for _ in range(n)],
                HETEROGENEOUS: [[] for _ in range(n)]}
    for e in graph.edges:
        incoming[e.kind][remap[e.dst]].append((remap[e.src], e.weight))
    out = np.zeros_like(states)
    for i in range(n):
        stream = graph.nodes[nodes[i]].stream
        w = layer[stream]
        acc = w["self"].data @ states[i]
        for kind, mat in ((HOMOGENEOUS, "homo"), (HETEROGENEOUS, "het")):
            edges_in = incoming[kind][i]
            if not edges_in:
                continue
            total = sum(wt for _, wt in edges_in)
            agg = np.zeros(states.shape[1])
            for j, wt in edges_in:
                agg += (wt / total) * states[j]
            acc = acc + w[mat].data @ agg
        out[i] = acc
    return np.tanh(out) if nonlinear else out


# ---------------------------------------------------------------------------
# attribute scaling


def test_attribute_scaling_identity_at_full_day(vocab, small_table):
    streams = {ACTIVITY: [ev(ACTIVITY, "running", 0, 86400)]}
    graph = day_graph(streams, vocab)
    states = initial_states(graph.arrays, small_table)
    assert np.allclose(states.data[0], vector(small_table, "running"), atol=1e-15)


def test_attribute_scaling_ratio(vocab, small_table):
    graph = mixed_graph(vocab, small_table)
    states = initial_states(graph.arrays, small_table)
    nodes = sorted(graph.nodes, key=lambda n: (n.stream, n.concept))
    for row, node in zip(states.data, nodes):
        ratio = row / vector(small_table, node.concept)
        assert np.allclose(ratio, node.attribute / 24.0, atol=1e-12)


# ---------------------------------------------------------------------------
# parameters


def test_named_parameters_names_and_order(small_table, small_config):
    model = Model(small_config.replace(layers=1), small_table, "")
    assert list(model.named_parameters()) == [
        f"gnn.layer0.{stream}.{kind}" for stream in ("activity", "audio", "location")
        for kind in ("self", "homo", "het")] + [
        "gnn.edge_proj", "gnn.node_query", "gnn.edge_query_proj", "gnn.rep_proj",
        "gnn.empty_day", "temporal.query_proj", "temporal.key_proj",
        "temporal.value_proj", "classifier.weights", "classifier.bias"]


@pytest.mark.parametrize("layers", [0, 1, 3])
def test_every_parameter_is_its_named_entry(small_table, small_config, layers):
    model = Model(small_config.replace(layers=layers), small_table, "")
    named = model.named_parameters()
    assert len(named) == 9 * layers + 10
    ids = {id(t) for t in named.values()}
    held = [t for layer in model.gnn.layers for kinds in layer.values()
            for t in kinds.values()]
    held += [v for part in (model.gnn, model.temporal) for v in vars(part).values()
             if isinstance(v, ag.Tensor)]
    assert len(held) == len(named) and {id(t) for t in held} == ids
    assert named is not model.named_parameters()       # a new dict each call


# ---------------------------------------------------------------------------
# message passing


def make_params(config, seed=0):
    return GnnParams(config, np.random.default_rng(seed))


def test_isolated_node_gets_self_term_only(vocab, small_table, small_config):
    streams = {ACTIVITY: [ev(ACTIVITY, "walking", 0, 7200)]}
    graph = day_graph(streams, vocab)
    params = make_params(small_config)
    states = initial_states(graph.arrays, small_table)
    compiled = batch_graphs([graph.arrays], small_config)
    out = message_passing_layer(states, compiled, params.layers[0], nonlinear=False)
    expected = params.layers[0][ACTIVITY]["self"].data @ states.data[0]
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_single_edge_alpha_is_one_regardless_of_weight(vocab, small_table, small_config):
    params = make_params(small_config)
    results = []
    for weight in (1, 7):
        base = day_graph(
            {AUDIO: [ev(AUDIO, "voice", 0, 3600), ev(AUDIO, "silence", 3600, 7200)]}, vocab)
        graph = LocalContextGraph(
            day_index=0, nodes=base.nodes,
            edges=[GraphEdge(src=e.src, dst=e.dst, kind=e.kind, weight=weight)
                   for e in base.edges])
        states = initial_states(graph.arrays, small_table)
        out = message_passing_layer(states, batch_graphs([graph.arrays], small_config),
                                    params.layers[0], nonlinear=False)
        results.append(out.data.copy())
    assert np.array_equal(results[0], results[1])


def test_message_passing_matches_dense_oracle(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    params = make_params(small_config, seed=5)
    states = initial_states(graph.arrays, small_table)
    compiled = batch_graphs([graph.arrays], small_config)
    for nonlinear in (False, True):
        got = message_passing_layer(states, compiled, params.layers[0], nonlinear)
        want = dense_layer_oracle(states.data, graph, params.layers[0], nonlinear)
        assert np.allclose(got.data, want, atol=1e-12)


def test_two_layers_match_dense_oracle(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    params = make_params(small_config, seed=6)
    states = initial_states(graph.arrays, small_table)
    compiled = batch_graphs([graph.arrays], small_config)
    got = states
    want = states.data.copy()
    for layer in params.layers:
        got = message_passing_layer(got, compiled, layer, nonlinear=True)
        want = dense_layer_oracle(want, graph, layer, nonlinear=True)
    assert np.allclose(got.data, want, atol=1e-12)


def composed_layer(states, batch, layer, nonlinear):
    """The layer as composed autograd ops: the reference for the fused one."""
    weight = {HOMOGENEOUS: "homo", HETEROGENEOUS: "het"}
    mixes = {kind: ag.segment_sum(states, m.dst, batch.n, weights=m.weight, rows=m.src)
             for kind, m in batch.messages.items()}
    parts = []
    for stream, lo, hi in batch.blocks:
        w = layer[stream]
        new = ag.matmul_t(rows(states, lo, hi), w["self"])
        for kind, mix in mixes.items():
            new = ag.add(new, ag.matmul_t(rows(mix, lo, hi), w[weight[kind]]))
        parts.append(new)
    out = parts[0] if len(parts) == 1 else ag.concat(parts, axis=0)
    return tanh(out) if nonlinear else out


LAYER_CASES = ["default", "no_homo", "no_hetero", "linear", "missing_stream", "edgeless"]


def layer_case(name, vocab, table, config):
    """The multi-graph batch of case `name` and its config; checks which edge
    kinds and streams the batch holds."""
    def graph(**streams):
        return day_graph(streams, vocab).arrays

    mixed = mixed_graph(vocab, table).arrays
    chatter = graph(audio=[ev(AUDIO, "voice", 0, 3600), ev(AUDIO, "silence", 3600, 7200),
                           ev(AUDIO, "voice", 7200, 9000)])
    no_audio = graph(
        activity=[ev(ACTIVITY, "walking", 0, 5000), ev(ACTIVITY, "running", 5000, 9000)],
        location=[ev(LOCATION, "gym", 0, 4000), ev(LOCATION, "dorm", 4000, 9000),
                  ev(LOCATION, "cafe", 9000, 12000)])
    lone_walk = graph(activity=[ev(ACTIVITY, "walking", 0, 7200)])
    lone_cafe = graph(location=[ev(LOCATION, "cafe", 0, 7200)])
    parts = [mixed, chatter, lone_walk, no_audio, mixed]
    config = {"no_homo": config.replace(use_homogeneous=False),
              "no_hetero": config.replace(use_heterogeneous=False),
              "linear": config.replace(linear_layers=True)}.get(name, config)
    if name == "missing_stream":
        parts = [no_audio, lone_walk, no_audio]
    elif name == "edgeless":
        parts = [lone_walk, lone_cafe, lone_walk]
    batch = batch_graphs(parts, config)
    kinds = {"no_homo": [HETEROGENEOUS], "no_hetero": [HOMOGENEOUS],
             "edgeless": []}.get(name, [HOMOGENEOUS, HETEROGENEOUS])
    assert list(batch.messages) == kinds
    assert len(batch.blocks) == (2 if name in ("missing_stream", "edgeless") else 3)
    return batch, config


def layer_inputs(name, vocab, table, config):
    batch, config = layer_case(name, vocab, table, config)
    states = ag.parameter(initial_states(batch, table).data)
    layer = make_params(config, seed=11).layers[0]
    weights = [layer[stream][kind] for stream in sorted(layer) for kind in layer[stream]]
    readout = ag.constant(np.random.default_rng(2).standard_normal((batch.n, config.d)))

    def run(forward):
        return forward(states, batch, layer, not config.linear_layers)

    def loss(out):
        return total(ag.mul(out, readout))

    return states, weights, run, loss


@pytest.mark.parametrize("name", LAYER_CASES)
def test_fused_layer_matches_composed_ops_bitwise(name, vocab, small_table, small_config):
    states, weights, run, loss = layer_inputs(name, vocab, small_table, small_config)
    assert len(weights) == 9
    results = []
    for forward in (composed_layer, message_passing_layer):
        for p in [states, *weights]:
            p.zero_grad()
        with ag.Tape() as tape:
            out = run(forward)
            total = loss(out)
        tape.backward(total)
        results.append([out.data.copy()] + [p.grad.copy() for p in [states, *weights]])
    for want, got in zip(*results):
        assert np.array_equal(got, want)
    assert np.any(results[1][1])          # the states' gradient is checked


@pytest.mark.parametrize("name", LAYER_CASES)
def test_fused_layer_gradient_matches_finite_differences(name, vocab, small_table,
                                                         small_config):
    states, weights, run, loss = layer_inputs(name, vocab, small_table, small_config)
    errors = ag.finite_diff_errors(lambda: loss(run(message_passing_layer)),
                                   [states, *weights])
    assert max(errors) < 1e-5


@pytest.mark.parametrize("name", LAYER_CASES)
def test_fused_layer_is_one_tape_op(name, vocab, small_table, small_config):
    _, _, run, _ = layer_inputs(name, vocab, small_table, small_config)
    with ag.Tape() as tape:
        run(message_passing_layer)
    assert len(tape) == 1


def test_fused_layer_overflow_is_a_numeric_error(vocab, small_table, small_config):
    batch, config = layer_case("default", vocab, small_table, small_config)
    states = initial_states(batch, small_table)
    layer = make_params(config).layers[0]
    layer[ACTIVITY]["het"].data[...] = 1e308   # tanh would hide the overflow
    for forward in (composed_layer, message_passing_layer):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            forward(states, batch, layer, True)


# ---------------------------------------------------------------------------
# edge embeddings


def test_edge_projection_picks_first_half(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    compiled = batch_graphs([graph.arrays], small_config)
    d = small_config.d
    w = ag.constant(np.hstack([np.eye(d), np.zeros((d, d))]))
    states = initial_states(graph.arrays, small_table)
    vecs = edge_embeddings(states, compiled, w)
    assert np.allclose(vecs.data, states.data[compiled.src_idx], atol=1e-15)


def test_zero_states_zero_edges(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    compiled = batch_graphs([graph.arrays], small_config)
    params = make_params(small_config)
    states = ag.constant(np.zeros((compiled.n, small_config.d)))
    vecs = edge_embeddings(states, compiled, params.edge_proj)
    assert np.array_equal(vecs.data, np.zeros_like(vecs.data))


def test_edge_embeddings_are_direction_sensitive(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    compiled = batch_graphs([graph.arrays], small_config)
    params = make_params(small_config, seed=9)
    states = initial_states(graph.arrays, small_table)
    vecs = edge_embeddings(states, compiled, params.edge_proj)
    pairs = {(int(s), int(t)): v for s, t, v in
             zip(compiled.src_idx, compiled.dst_idx, vecs.data)}
    flipped = [(k, (k[1], k[0])) for k in pairs if (k[1], k[0]) in pairs and k[0] < k[1]]
    assert flipped
    assert any(not np.allclose(pairs[a], pairs[b]) for a, b in flipped)


# ---------------------------------------------------------------------------
# pooling


def test_semantic_pool_single_node():
    state = np.array([[1.0, -2.0, 0.5]])
    g_s, beta = semantic_pool(ag.constant(state), ag.constant([0.3, 0.1, -0.2]),
                              np.zeros(1, np.intp), 1)
    assert np.array_equal(g_s.data, state)
    assert beta.tolist() == [1.0]


def test_semantic_pool_identical_states_uniform():
    state = np.tile([0.5, 1.0], (4, 1))
    g_s, beta = semantic_pool(ag.constant(state), ag.constant([1.0, 2.0]),
                              np.zeros(4, np.intp), 1)
    assert np.allclose(beta, 0.25, atol=1e-15)
    assert np.allclose(g_s.data, [0.5, 1.0], atol=1e-15)


def test_semantic_pool_matches_two_pass_oracle():
    rng = np.random.default_rng(21)
    states = rng.uniform(-2, 2, (6, 5))
    q = rng.uniform(-1, 1, 5)
    g_s, beta = semantic_pool(ag.constant(states), ag.constant(q), np.zeros(6, np.intp), 1)
    scores = states @ q
    w = np.exp(scores - scores.max())
    w /= w.sum()
    assert np.allclose(beta, w, atol=1e-12)
    assert np.allclose(g_s.data, w @ states, atol=1e-12)
    assert abs(beta.sum() - 1.0) <= 1e-12


def test_structural_pool_single_edge():
    vec = np.array([[0.3, -0.7]])
    g_e, beta = structural_pool(ag.constant(vec), ag.constant([[1.0, 2.0, 3.0]]),
                                ag.constant(np.ones((2, 3))), np.zeros(1, np.intp))
    assert np.array_equal(g_e.data, vec)
    assert beta.tolist() == [1.0]


def test_structural_pool_identical_edges():
    vec = np.tile([0.2, 0.9], (5, 1))
    g_e, beta = structural_pool(ag.constant(vec), ag.constant([[0.5, 0.5]]),
                                ag.constant(np.eye(2)), np.zeros(5, np.intp))
    assert np.allclose(beta, 0.2, atol=1e-15)
    assert np.allclose(g_e.data, [0.2, 0.9], atol=1e-15)


def test_structural_pool_convex_hull_bounds():
    rng = np.random.default_rng(22)
    vectors = rng.uniform(-3, 3, (7, 4))
    g_e, beta = structural_pool(ag.constant(vectors), ag.constant(rng.uniform(-1, 1, (1, 3))),
                                ag.constant(rng.uniform(-1, 1, (4, 3))), np.zeros(7, np.intp))
    assert abs(beta.sum() - 1.0) <= 1e-12
    assert np.all(g_e.data >= vectors.min(axis=0) - 1e-12)
    assert np.all(g_e.data <= vectors.max(axis=0) + 1e-12)


# ---------------------------------------------------------------------------
# full local forward


def test_zero_layers_pools_raw_scaled_embeddings(vocab, small_table):
    config = TrainConfig(d=8, de=6, dp=10, layers=0, span=3, seed=3)
    graph = mixed_graph(vocab, small_table)
    params = make_params(config, seed=4)
    rep = local_graph_forward(graph, small_table, params, config)
    states = initial_states(graph.arrays, small_table)
    g_s, _ = semantic_pool(states, params.node_query, np.zeros(graph.arrays.n, np.intp), 1)
    assert np.allclose(rep.g_s.data, g_s.data, atol=1e-15)


def test_empty_graph_uses_empty_day_vector(vocab, small_table, small_config):
    graph = LocalContextGraph(day_index=0)
    params = make_params(small_config)
    with pytest.raises(ValidationError):
        local_graph_forward(graph, small_table, params, small_config)

    model = Model(small_config, small_table, "")
    model.gnn.empty_day.data[...] = np.random.default_rng(5).uniform(-1, 1, small_config.dp)
    out = model.forward(GlobalSample(graphs=[graph] * 3, label=0, subject="s",
                                     anchor_day=2))
    want, _ = span_attention(ag.constant(np.tile(model.gnn.empty_day.data, (3, 1))),
                             [3], model.temporal, small_config)
    assert out.batch.readout is None and out.node_rows().size == 0
    assert np.array_equal(out.g_star, want.data[0])
    assert all(day["empty"] for day in out.attention_export()["days"])


def test_edgeless_graph_zero_structural(vocab, small_table, small_config):
    streams = {ACTIVITY: [ev(ACTIVITY, "walking", 0, 7200)]}
    graph = day_graph(streams, vocab)
    params = make_params(small_config)
    rep = local_graph_forward(graph, small_table, params, small_config)
    assert np.array_equal(rep.g_e.data, np.zeros((1, small_config.de)))
    assert rep.edge_attention.size == 0


def test_node_permutation_invariance_bitwise(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    params = make_params(small_config, seed=8)
    rep1 = local_graph_forward(graph, small_table, params, small_config)

    rng = np.random.default_rng(0)
    perm = rng.permutation(len(graph.nodes))
    inverse = np.argsort(perm)
    shuffled = LocalContextGraph(
        day_index=graph.day_index,
        nodes=[graph.nodes[i] for i in perm],
        edges=[GraphEdge(src=int(inverse[e.src]), dst=int(inverse[e.dst]),
                         kind=e.kind, weight=e.weight) for e in graph.edges])
    rep2 = local_graph_forward(shuffled, small_table, params, small_config)
    assert np.array_equal(rep1.g_s.data, rep2.g_s.data)
    assert np.array_equal(rep1.g_e.data, rep2.g_e.data)
    assert np.array_equal(rep1.rep.data, rep2.rep.data)


def test_edge_weight_common_scaling_invariance(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    params = make_params(small_config, seed=8)
    rep1 = local_graph_forward(graph, small_table, params, small_config)
    scaled = LocalContextGraph(
        day_index=graph.day_index, nodes=list(graph.nodes),
        edges=[GraphEdge(src=e.src, dst=e.dst, kind=e.kind, weight=3 * e.weight)
               for e in graph.edges])
    rep2 = local_graph_forward(scaled, small_table, params, small_config)
    assert np.array_equal(rep1.rep.data, rep2.rep.data)


def test_one_graph_under_each_ablation_matches_fresh_graph(vocab, small_table,
                                                          small_config):
    params = make_params(small_config, seed=8)
    graph = mixed_graph(vocab, small_table)
    configs = [small_config.replace(use_homogeneous=False),
               small_config.replace(use_heterogeneous=False),
               small_config.replace(use_homogeneous=False, use_heterogeneous=False),
               small_config]
    for config in configs:
        got = local_graph_forward(graph, small_table, params, config)
        want = local_graph_forward(mixed_graph(vocab, small_table), small_table,
                                   params, config)
        assert np.array_equal(got.rep.data, want.rep.data)
        assert got.export(0)["edges"] == want.export(0)["edges"]
        assert np.array_equal(got.edge_attention, want.edge_attention)


def test_one_graph_with_two_tables_uses_each_table(vocab, small_table, small_config):
    other = EmbeddingTable.fallback(vocab, small_config.d, small_config.seed + 1)
    params = make_params(small_config, seed=8)
    graph = mixed_graph(vocab, small_table)
    for table in (small_table, other, small_table):
        got = local_graph_forward(graph, table, params, small_config)
        want = local_graph_forward(mixed_graph(vocab, table), table, params,
                                   small_config)
        assert np.array_equal(got.rep.data, want.rep.data)
    assert not np.array_equal(
        local_graph_forward(graph, other, params, small_config).rep.data,
        local_graph_forward(graph, small_table, params, small_config).rep.data)


def test_attention_weights_sum_to_one(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    params = make_params(small_config, seed=8)
    rep = local_graph_forward(graph, small_table, params, small_config)
    assert abs(rep.node_attention.sum() - 1.0) <= 1e-12
    assert abs(rep.edge_attention.sum() - 1.0) <= 1e-12


def full_forward_oracle(graph, table, params, config):
    """Independent straight-line evaluation of the whole local readout."""
    nodes = sorted(graph.nodes, key=lambda n: (n.stream, n.concept))
    states = np.stack([vector(table, n.concept) * (n.attribute / 24.0) for n in nodes])
    for layer in params.layers:
        states = dense_layer_oracle(states, graph, layer,
                                    nonlinear=not config.linear_layers)
    scores = states @ params.node_query.data
    beta = np.exp(scores - scores.max())
    beta /= beta.sum()
    g_s = beta @ states

    order = sorted(range(len(graph.nodes)),
                   key=lambda i: (graph.nodes[i].stream, graph.nodes[i].concept))
    remap = {old: new for new, old in enumerate(order)}
    edges = sorted(graph.edges, key=lambda e: (remap[e.src], remap[e.dst]))
    if edges:
        vecs = np.stack([params.edge_proj.data @ np.concatenate(
            [states[remap[e.src]], states[remap[e.dst]]]) for e in edges])
        key = params.edge_query_proj.data @ g_s
        es = vecs @ key
        be = np.exp(es - es.max())
        be /= be.sum()
        g_e = be @ vecs
    else:
        g_e = np.zeros(config.de)
    return params.rep_proj.data @ np.concatenate([g_e, g_s])


def test_full_forward_matches_oracle_and_golden(vocab, small_table, small_config):
    graph = mixed_graph(vocab, small_table)
    params = make_params(small_config, seed=12)
    rep = local_graph_forward(graph, small_table, params, small_config)
    want = full_forward_oracle(graph, small_table, params, small_config)
    assert np.allclose(rep.rep.data, want, atol=1e-12)

    golden = json.loads((DATA / "golden_forward.json").read_text())
    assert np.allclose(rep.rep.data, golden["rep"], atol=1e-9)


# ---------------------------------------------------------------------------
# batched forward


def invariance_samples(vocab, table):
    """Spans over a shared pool of day graphs: both edge kinds, edgeless,
    empty, and a day repeated within one span."""
    mixed = mixed_graph(vocab, table)
    edgeless = day_graph({ACTIVITY: [ev(ACTIVITY, "walking", 0, 7200)]}, vocab)
    chatter = day_graph(
        {AUDIO: [ev(AUDIO, "voice", 0, 3600), ev(AUDIO, "silence", 3600, 7200),
                 ev(AUDIO, "voice", 7200, 9000)]}, vocab)
    empty = LocalContextGraph(day_index=0)
    spans = [[mixed, empty, edgeless], [empty, edgeless, chatter],
             [chatter, mixed, mixed], [empty, empty, empty]]
    return [GlobalSample(graphs=g, label=i % 4, subject="s", anchor_day=i)
            for i, g in enumerate(spans)]


def test_sample_output_does_not_depend_on_its_batch(vocab, small_table, small_config):
    samples = invariance_samples(vocab, small_table)
    batches = [samples, samples[::-1], [samples[2]], [samples[3], samples[0]],
               [samples[1], samples[1]]]
    for config in (small_config, small_config.replace(use_homogeneous=False),
                   small_config.replace(use_heterogeneous=False),
                   small_config.replace(use_homogeneous=False, use_heterogeneous=False)):
        model = Model(config, small_table, "")
        alone = {id(s): model.forward(s) for s in samples}
        for batch in batches:
            for s, out in zip(batch, model.forward_batch(batch)):
                want = alone[id(s)]
                assert np.max(np.abs(out.probs.data - want.probs.data)) <= 1e-12
                assert np.max(np.abs(out.day_attention - want.day_attention)) <= 1e-12
                for got_day, want_day in zip(out.attention_export()["days"],
                                             want.attention_export()["days"]):
                    assert got_day["edges"] == want_day["edges"]
                    assert all((e["kind"] == HOMOGENEOUS and config.use_homogeneous) or
                               (e["kind"] == HETEROGENEOUS and config.use_heterogeneous)
                               for e in got_day["edges"])
                    assert ((got_day["edge_attention"] is None)
                            == (want_day["edge_attention"] is None))
                    assert len(got_day["edges"]) == (0 if got_day["edge_attention"] is None
                                                     else len(got_day["edge_attention"]))


def test_node_variance_counts_a_shared_day_once_per_sample(vocab, small_table,
                                                           small_config):
    samples = invariance_samples(vocab, small_table)
    batch = [samples[0], samples[2], samples[0], samples[3]]
    model = Model(small_config, small_table, "")
    outs = model.forward_batch(batch)
    states = outs[0].batch.readout.states
    got = node_variance_loss(
        [ag.gather_rows(states, np.concatenate([o.node_rows() for o in outs]))]).item()

    per_sample = [model.forward(s) for s in batch]
    rows = np.concatenate([o.batch.readout.states.data[o.node_rows()]
                           for o in per_sample if o.batch.readout is not None])
    assert rows.shape[0] == sum(
        len(g.nodes) for s in batch for g in s.graphs)      # mixed counted 4 times
    centered = rows - rows.mean(axis=0)
    want = -1.0 / (1.0 + np.exp(-(centered ** 2).mean(axis=0).mean()))
    assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# frozen forward over day unions


def cohort_samples(config):
    """Samples of 10 generated subjects of 14 days: well over two unions of
    distinct non-empty days."""
    dataset = generate(ScenarioSpec(mechanism="combined", subjects=10, days=14, seed=4))
    table = EmbeddingTable.fallback(dataset.vocab, config.d, config.seed)
    return dataset.samples(config.span, table), table


def record_unions(monkeypatch) -> list[list[int]]:
    """Wrap the model's `graph_forward`; the list gets the graphs (by
    identity) of each union it forwards."""
    unions = []

    def recording(graphs, *args):
        unions.append([id(g) for g in graphs])
        return graph_forward(graphs, *args)

    monkeypatch.setattr(model_module, "graph_forward", recording)
    return unions


def distinct_days(samples) -> list[int]:
    return sorted({id(g) for s in samples for g in s.graphs if not g.is_empty()})


def test_forward_all_forwards_each_distinct_day_once(small_config, monkeypatch):
    samples, table = cohort_samples(small_config)
    model = Model(small_config, table, "")
    unions = record_unions(monkeypatch)
    outs = list(model.forward_all(samples))
    assert len(outs) == len(samples)
    assert sorted(g for union in unions for g in union) == distinct_days(samples)
    assert len(unions) >= 3
    assert max(len(union) for union in unions) <= model_module._UNION


@pytest.mark.parametrize("flags", [{}, {"use_homogeneous": False},
                                   {"use_heterogeneous": False},
                                   {"use_homogeneous": False, "use_heterogeneous": False},
                                   {"linear_layers": True}])
@pytest.mark.parametrize("spans", [None, 7])
def test_forward_all_agrees_with_forward(small_config, monkeypatch, flags, spans):
    config = small_config.replace(**flags)
    samples, table = cohort_samples(config)
    if spans is not None:             # span chunks that end mid-subject
        monkeypatch.setattr(model_module, "_SPANS", spans)
    model = Model(config, table, "")
    outs = list(model.forward_all(samples))
    assert len(outs) == len(samples)
    for s, out in zip(samples, outs):
        want = model.forward(s)
        assert np.max(np.abs(out.probs.data - want.probs.data)) <= 1e-12
        assert np.max(np.abs(out.g_star - want.g_star)) <= 1e-12
        assert np.max(np.abs(out.day_attention - want.day_attention)) <= 1e-12
        assert out.predicted() == want.predicted()


def test_forward_all_of_no_samples_yields_nothing(small_table, small_config, monkeypatch):
    unions = record_unions(monkeypatch)
    assert list(Model(small_config, small_table, "").forward_all([])) == []
    assert unions == []


def test_frozen_protocol_forwards_each_day_once(small_config, monkeypatch):
    config = small_config.replace(splits=4)
    samples, table = cohort_samples(config)
    model = Model(config, table, "")
    unions = record_unions(monkeypatch)
    result = run_protocol(samples, config, table, model=model)
    assert sorted(g for union in unions for g in union) == distinct_days(samples)
    splits = split_protocol(len(samples), config.splits, config.seed)
    assert result.reports == [
        evaluate(model, [samples[j] for j in test], task=f"task-{i + 1}")
        for i, (_, test) in enumerate(splits)]
