"""Graph-to-plan compilation tests (BN decomposition etc.)."""

from repro.frameworks.optimizer import (
    MX_REWRITE_RULES,
    TF_REWRITE_RULES,
    build_plan,
)


def test_tf_decomposes_batchnorm(cnn_graph):
    plan = build_plan(cnn_graph, TF_REWRITE_RULES)
    types = [layer.layer_type for layer in plan]
    assert "Mul" in types and "Add" in types
    assert "BatchNorm" not in types
    # Paper Sec. III-D2: Conv2D -> Mul -> Add -> Relu sequence.
    conv_pos = types.index("Conv2D")
    assert types[conv_pos : conv_pos + 4] == ["Conv2D", "Mul", "Add", "Relu"]


def test_mx_keeps_batchnorm_fused(cnn_graph):
    plan = build_plan(cnn_graph, MX_REWRITE_RULES)
    types = [layer.layer_type for layer in plan]
    assert "BatchNorm" in types
    assert "Mul" not in types


def test_tf_splits_dense(cnn_graph):
    types = [l.layer_type for l in build_plan(cnn_graph, TF_REWRITE_RULES)]
    assert "MatMul" in types and "BiasAdd" in types


def test_mx_keeps_dense_fused(cnn_graph):
    types = [l.layer_type for l in build_plan(cnn_graph, MX_REWRITE_RULES)]
    assert "FullyConnected" in types


def test_residual_add_becomes_addn_in_tf(cnn_graph):
    types = [l.layer_type for l in build_plan(cnn_graph, TF_REWRITE_RULES)]
    assert "AddN" in types


def test_indices_are_one_based_and_contiguous(cnn_graph):
    plan = build_plan(cnn_graph, TF_REWRITE_RULES)
    assert [l.index for l in plan] == list(range(1, len(plan) + 1))


def test_tf_slash_names(cnn_graph):
    plan = build_plan(cnn_graph, TF_REWRITE_RULES)
    conv = next(l for l in plan if l.layer_type == "Conv2D")
    assert conv.name == "conv1/Conv2D"
    mul = next(l for l in plan if l.layer_type == "Mul")
    assert mul.name == "bn1/mul"


def test_mx_bare_names(cnn_graph):
    plan = build_plan(cnn_graph, MX_REWRITE_RULES)
    conv = next(l for l in plan if l.layer_type == "Convolution")
    assert conv.name == "conv1"


def test_plan_inputs_reference_plan_layers(cnn_graph):
    for rules in (TF_REWRITE_RULES, MX_REWRITE_RULES):
        plan = build_plan(cnn_graph, rules)
        names = {l.name for l in plan}
        for layer in plan:
            assert set(layer.inputs) <= names


def test_identity_folded_away():
    from repro.frameworks import Graph

    g = Graph("g")
    g.add_op("input", "Input", shape=(3, 8, 8))
    g.add_op("id", "Identity", ["input"])
    g.add_op("relu", "Relu", ["id"])
    plan = build_plan(g, TF_REWRITE_RULES)
    names = [l.name for l in plan]
    assert not any("id" == n for n in names)
    relu = next(l for l in plan if l.layer_type == "Relu")
    assert relu.inputs == ["input/Data"]


def test_unsupported_op_names_framework_op_and_node():
    """An op the framework has no layer type for is a ValueError naming
    the framework, the op and the node, not a bare KeyError."""
    import pytest

    from repro.frameworks import Graph
    from repro.frameworks.optimizer import UnsupportedOpError

    g = Graph("bias")
    g.add_op("input", "Input", shape=(8,))
    g.add_op("bias_add", "BiasAdd", ["input"])
    with pytest.raises(UnsupportedOpError) as err:
        build_plan(g, MX_REWRITE_RULES)
    assert isinstance(err.value, ValueError)
    message = str(err.value)
    assert "mxnet_like" in message
    assert "'BiasAdd'" in message and "'bias_add'" in message
