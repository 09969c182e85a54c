"""The per-diagram values the package keeps: each is computed once per
process, shared read-only, and leaves every output byte as it was."""

import pytest

from adefusion import diagram, fusion, modular, ocneanu, path_model
from adefusion.cli import main
from adefusion.diagram import build_diagram, parse_graph_name, perron_frobenius
from adefusion.fusion import ambichiral_subalgebra, fusion_matrices
from adefusion.modular import modular_rep
from adefusion.path_model import PathSpace, essential_subspace


def _e6_bases():
    return essential_subspace(PathSpace(parse_graph_name("E6"), 6))


# name: (call, its lru cache, the kept objects of a result, their arrays)
KEPT = {
    "build_diagram": (lambda: build_diagram("E", 6), diagram._build,
                      lambda d: [d], lambda d: [d.adjacency]),
    "perron_frobenius": (lambda: perron_frobenius(parse_graph_name("E6")),
                         diagram.perron_frobenius,
                         lambda v: [v], lambda v: [v]),
    "modular_rep": (lambda: modular_rep("E6"), modular.modular_rep,
                    lambda rep: [rep], lambda rep: [rep.s, rep.t]),
    "ambichiral_subalgebra": (lambda: ambichiral_subalgebra(
                                  fusion_matrices("E6")),
                              fusion.ambichiral_subalgebra,
                              lambda sub: [sub], lambda sub: []),
    "decompose_right": (lambda: ocneanu._s_matrices("E6"),
                        ocneanu._s_matrices,
                        lambda stack: [stack], lambda stack: [stack]),
    # the one stack that toric --format json and modular_json read
    "toric_matrices": (lambda: modular._toric_matrices("E6"),
                       modular._toric_matrices,
                       lambda stack: [stack], lambda stack: [stack]),
    # a new dict on each call, over the kept bases
    "essential_subspace": (_e6_bases, path_model._subspace_bases,
                           lambda bases: list(bases.values()),
                           lambda bases: list(bases.values())),
}


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_value_is_shared_and_read_only(name):
    call, cache, kept, arrays = KEPT[name]
    first = call()
    hits = cache.cache_info().hits
    second = call()
    assert cache.cache_info().hits > hits
    assert all(x is y for x, y in zip(kept(first), kept(second), strict=True))
    for a in arrays(first):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_kept_keys_carry_their_arguments():
    d = parse_graph_name("E6")
    space = PathSpace(d, 4)
    loose = essential_subspace(space)
    assert loose is not essential_subspace(space)
    for origin in (0, 5):
        mine = essential_subspace(PathSpace(d, 4, origin))
        assert mine.keys() == {ab for ab in loose if ab[0] == origin}
        for ab, basis in mine.items():
            assert basis.tobytes() == loose[ab].tobytes(), ab
    assert modular_rep("E8").level == 30
    assert ambichiral_subalgebra("A5") == (0, 1, 2, 3, 4)


def _clear_caches():
    for mod in (diagram, fusion, ocneanu, modular, path_model):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


FORMATS = (("fusion", ("json", "table")), ("essential", ("json", "table")),
           ("paths", ("json", "table")), ("ocneanu", ("json", "dot", "table")),
           ("toric", ("json", "table")), ("modular-check", ("json", "table")))
SCRIPT = [[command, graph, "--format", fmt]
           + (["--length", "6"] if command == "paths" else [])
           for graph in ("E6", "A11", "E8") for command, formats in FORMATS
           for fmt in formats
           # E8's greedy quantum-symmetry basis makes this one exit 1
           if [command, graph, fmt] != ["ocneanu", "E8", "dot"]]
SCRIPT += [["verify-paper", "E6"], ["verify-paper", "A11"]]


def test_script_twice_from_cold_caches_is_byte_identical(capsys):
    _clear_caches()
    runs = []
    for _ in range(2):
        outs = []
        for argv in SCRIPT:
            assert main(argv) == 0, argv
            outs.append(capsys.readouterr().out)
        runs.append(outs)
    for argv, cold, warm in zip(SCRIPT, *runs):
        assert cold and warm == cold, argv
