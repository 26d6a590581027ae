"""Tests contrasting the two Reduce walk strategies."""

from repro.adders import ripple_carry_adder
from repro.aig import levels, lit_var
from repro.core import ExactModel, Spcf, primary_reduce, spcf_exact_tt
from repro.netlist import compute_levels, renode


def _setup(n=4):
    aig = ripple_carry_adder(n)
    cout_po = n
    d = levels(aig)[lit_var(aig.pos[cout_po])]
    spcf = spcf_exact_tt(aig, cout_po, d)
    net = renode(aig, k=6)
    return aig, net, cout_po, spcf


def test_full_walk_marks_at_least_as_many_nodes():
    aig, net, po, spcf = _setup()
    cone_t = net.extract_po_cone(po)
    model_t = ExactModel(cone_t)
    target = primary_reduce(
        cone_t, 0, model_t, model_t.spcf_fn(Spcf("tt", tt=spcf)),
        walk_mode="target",
    )
    cone_f = net.extract_po_cone(po)
    model_f = ExactModel(cone_f)
    full = primary_reduce(
        cone_f, 0, model_f, model_f.spcf_fn(Spcf("tt", tt=spcf)),
        walk_mode="full",
    )
    assert len(full.windows) >= len(target.windows)


def test_both_modes_preserve_window_invariant():
    for mode in ("target", "full"):
        aig, net, po, spcf = _setup()
        cone = net.extract_po_cone(po)
        model = ExactModel(cone)
        original = cone.po_tts()[0]
        result = primary_reduce(
            cone, 0, model, model.spcf_fn(Spcf("tt", tt=spcf)),
            walk_mode=mode,
        )
        if result.sigma_nid is None:
            continue
        model.recompute()
        sigma = model.fn(result.sigma_nid)
        y_pos = cone.po_tts()[0]
        assert (sigma & (y_pos ^ original)).is_const0, mode


def test_full_walk_reduces_cone_more_or_equal():
    aig, net, po, spcf = _setup(5)
    results = {}
    for mode in ("target", "full"):
        cone = net.extract_po_cone(po)
        model = ExactModel(cone)
        primary_reduce(
            cone, 0, model, model.spcf_fn(Spcf("tt", tt=spcf)),
            walk_mode=mode,
        )
        root, _ = cone.pos[0]
        results[mode] = compute_levels(cone)[root]
    assert results["full"] <= results["target"]


def test_unknown_walk_mode_behaves_like_full():
    # Any walk_mode other than 'target' skips the early break.
    aig, net, po, spcf = _setup()
    cone = net.extract_po_cone(po)
    model = ExactModel(cone)
    result = primary_reduce(
        cone, 0, model, model.spcf_fn(Spcf("tt", tt=spcf)),
        walk_mode="everything",
    )
    assert result.windows  # walk ran


def test_serial_walks_renode_their_common_input_once():
    # Both walks' first rounds read the same input: one renode serves
    # both, and each walk still answers as it does alone.
    from repro import perf
    from repro.core import LookaheadOptimizer

    aig = ripple_carry_adder(6)
    calls, outs = {}, {}
    for modes in (("target",), ("full",), ("target", "full")):
        perf.reset()
        with LookaheadOptimizer(
            workers=1, max_rounds=2, walk_modes=modes
        ) as opt:
            outs[modes] = opt.optimize(aig)
        calls[modes] = perf.snapshot()["timers"]["phase.renode"]["calls"]
    assert calls[("target", "full")] == (
        calls[("target",)] + calls[("full",)] - 1
    )
    both = outs[("target", "full")]
    assert (both.structure_digest() in
            {outs[("target",)].structure_digest(),
             outs[("full",)].structure_digest()})
