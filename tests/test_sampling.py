import numpy as np
import pytest

from jacobigeom import metrics, sampling
from jacobigeom.jacobi import JacobiAlgebraElement, _point
from jacobigeom.sampling import StackStream, window_words
from jacobigeom.symplectic import check_symplectic
from public_api import leaves


def _philox_words(seed, count):
    """The first ``count`` raw words of the Philox stream keyed by SeedSequence(seed),
    drawn in order from a fresh bit generator (no advance)."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return np.random.Philox(key=key).random_raw(count), key


@pytest.mark.parametrize("seed,n,start,stop", [
    (0, 1, 0, 4), (42, 2, 5, 9), (2**70, 3, 1000, 1003), (7, 10, 3, 4),
])
def test_stream_windows_are_words_of_one_philox_stream(seed, n, start, stop):
    # word j of sample i is raw word i W + j of one stream, converted as Generator.random
    w = window_words(n)
    assert w % 4 == 0
    words, key = _philox_words(seed, stop * w)
    got = StackStream(seed, n, start, stop).random(w)
    assert got.shape == (stop - start, w)
    want = (words[start * w:].reshape(stop - start, w) >> np.uint64(11)) * 2.0 ** -53
    assert np.array_equal(got, want)
    by_generator = np.random.Generator(np.random.Philox(key=key)).random(stop * w)
    assert np.array_equal(got.ravel(), by_generator[start * w:])


def test_stream_draws_read_each_window_in_order():
    # successive draws take successive words of every sample's window, shaped (k, *size)
    n, w = 2, window_words(2)
    whole = StackStream(5, n, 2, 5).random(w)
    stream = StackStream(5, n, 2, 5)
    a, b, c = stream.random((2, 3)), stream.random(4), stream.random()
    assert (a.shape, b.shape, c.shape) == ((3, 2, 3), (3, 4), (3,))
    assert np.array_equal(a.reshape(3, 6), whole[:, :6])
    assert np.array_equal(b, whole[:, 6:10]) and np.array_equal(c, whole[:, 10])


@pytest.mark.parametrize("n", range(1, 11))
def test_every_draw_fits_its_window(n):
    # the hungriest spec, metric_group, takes 14 n^2 + 8 n + 4 words of the window
    used = {}
    for obj, spec in metrics._INVARIANCE_SPECS.items():
        stream = StackStream(3, n, 0, 2)
        spec.draw(stream, n)
        used[obj] = stream._at
    assert max(used.values()) == used["metric_group"] == 14 * n * n + 8 * n + 4
    assert used["metric_group"] <= window_words(n)


# the StackStream.random calls of each spec's draw: one per run of consecutive uniform words
# (sampling._draw), and in rand_spd two for the Box-Muller normals and one for the eigenvalues
_DRAW_CALLS = {
    "metric_group": 6,  # rand_jacobi twice (the algebra, then the rows), two tangents
    # rand_jacobi 2, the point 5 (rand_spd 3; the extended point's kappa with its rows), two
    # tangents
    **dict.fromkeys(["metric_xjn_pq", "metric_xjn_chipsi", "metric_xjn_xirho", "metric_extended",
                     "metric_xjn_broken", "kahler_xjn", "lambda_R"], 9),
    "kahler_ball": 5,  # the algebra, alpha, the point, two tangents
}


def test_every_spec_has_a_draw_call_budget():
    assert set(_DRAW_CALLS) == set(metrics.INVARIANCE_OBJECTS)


@pytest.mark.parametrize("obj", metrics.INVARIANCE_OBJECTS)
def test_each_run_of_words_is_one_draw(monkeypatch, obj):
    calls = []
    random = StackStream.random
    monkeypatch.setattr(StackStream, "random",
                        lambda self, size=None: calls.append(size) or random(self, size))
    metrics._INVARIANCE_SPECS[obj].draw(StackStream(3, 2, 0, 2), 2)
    assert len(calls) == _DRAW_CALLS[obj], calls


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("layout", ["mss", "ssmmrrk", "rrk"])
def test_a_run_of_words_is_its_parts_drawn_one_by_one(layout, stacked):
    # one _uniform call over the run gives the parts' draws bit for bit, with their types, and
    # over a stack each part is contiguous, as when it was drawn alone
    n, scale = 3, 0.25

    def rng():
        return StackStream(2, n, 0, 4) if stacked else np.random.default_rng(2)

    together, one, alone = sampling._draw(rng(), n, layout, scale), rng(), []
    for c in layout:
        part = scale * sampling._uniform(one, {"r": (1, n), "k": None}.get(c, (n, n)))
        part = sampling.symmetrize(part) if c == "s" else part
        alone.append(sampling._row(part) if c == "r" else part)
    for a, b in zip(together, alone, strict=True):
        assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert np.shape(a) == np.shape(b) and (not stacked or a.flags.c_contiguous)


def test_a_draw_past_the_window_raises():
    w = window_words(1)
    stream = StackStream(0, 1, 0, 3)
    stream.random(w - 1)
    with pytest.raises(RuntimeError, match="stream words"):
        stream.random(2)
    with pytest.raises(RuntimeError, match="stream words"):
        StackStream(0, 1, 0, 3).random(w + 1)


def test_box_muller_is_finite_at_the_ends_and_standard():
    stream = StackStream(0, 1, 0, 1)
    stream._u[0, :4] = (0.0, 1.0 - 2.0 ** -53, 0.25, 0.0)  # u1 at 0 and at its largest
    z = stream.standard_normal(2)
    assert z[0, 0] == 0.0 and np.isclose(z[0, 1], np.sqrt(106.0 * np.log(2.0)), rtol=1e-15)
    z = StackStream(11, 4, 0, 1000).standard_normal(window_words(4) // 2).ravel()
    assert np.all(np.isfinite(z))
    assert abs(np.mean(z)) < 0.01 and abs(np.var(z) - 1.0) < 0.015
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 0.005


def _previous_uniform(rng, size=None, low=-1.0, high=1.0):
    # the draw formula of the generator-list engine: Generator.uniform
    return float(rng.gen.uniform(low, high)) if size is None else rng.gen.uniform(
        low, high, size=size)


class _PreviousNormals:
    """A Generator seen through the previous formulas: normals by Generator.normal."""

    def __init__(self, gen):
        self.gen = gen

    def standard_normal(self, size):
        return self.gen.normal(size=size)


_SAMPLERS = {
    "rand_matrix": lambda rng, n: sampling.rand_matrix(rng, n, n + 1, scale=0.5),
    "rand_row": sampling.rand_row,
    "rand_complex_row": sampling.rand_complex_row,
    "rand_sym": sampling.rand_sym,
    "rand_spd": sampling.rand_spd,
    "rand_sp_algebra": sampling.rand_sp_algebra,
    "rand_symplectic": sampling.rand_symplectic,
    "rand_heisenberg": sampling.rand_heisenberg,
    "rand_jacobi": sampling.rand_jacobi,
    "rand_gj_algebra": sampling.rand_gj_algebra,
    "rand_siegel": sampling.rand_siegel,
    "rand_pq_point": sampling.rand_pq_point,
    "rand_pq_tangent": sampling.rand_pq_tangent,
    "rand_sn_chart": sampling.rand_sn_chart,
    "rand_sn_tangent": lambda rng, n: sampling.rand_sn_tangent(
        rng, sampling.rand_sn_chart(rng, n)),
    "rand_ball_point": sampling.rand_ball_point,
    "rand_ball_tangent": sampling.rand_ball_tangent,
    "rand_vu_point": sampling.rand_vu_point,
    "rand_vu_tangent": sampling.rand_vu_tangent,
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", _SAMPLERS)
def test_generator_draws_keep_their_bits(monkeypatch, name, n):
    # a Generator still gives the scalar API what Generator.uniform and .normal gave it,
    # bit for bit and with the same types, and consumes the same words
    now_rng, then_rng = np.random.default_rng(77 + n), np.random.default_rng(77 + n)
    now = leaves(_SAMPLERS[name](now_rng, n))
    monkeypatch.setattr(sampling, "_uniform", _previous_uniform)
    then = leaves(_SAMPLERS[name](_PreviousNormals(then_rng), n))
    assert len(now) == len(then)
    for a, b in zip(now, then):
        assert type(a) is type(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    assert now_rng.bit_generator.state == then_rng.bit_generator.state


@pytest.mark.parametrize("name", _SAMPLERS)
def test_every_sampler_draws_a_stack(name):
    # from a StackStream each sampler draws a stack (rand_gj_algebra's row check read the
    # stack's length as n and refused it), and sample i of the stack is the draw of its window
    n, k = 2, 3
    stack = leaves(_SAMPLERS[name](StackStream(5, n, 0, k), n))
    for i in range(k):
        alone = leaves(_SAMPLERS[name](StackStream(5, n, i, i + 1), n))
        assert len(alone) == len(stack)
        for a, b in zip(stack, alone):
            assert np.shape(a)[:1] == (k,) and np.array_equal(a[i], b[0]), name


def test_a_stack_of_algebra_elements_embeds_sample_by_sample():
    z = sampling.rand_gj_algebra(StackStream(5, 2, 0, 3), 2)
    assert z.n == 2 and z.to_matrix().shape == (3, 6, 6)
    for i in range(3):
        one = JacobiAlgebraElement(z.a[i], z.b[i], z.c[i], z.p[i], z.q[i], z.r[i])
        assert np.array_equal(z.to_matrix()[i], one.to_matrix())


@pytest.mark.parametrize("n", range(1, 11))
def test_unchecked_group_draws_are_symplectic(n):
    # rand_jacobi builds its element without JacobiElement's entry check; the check it
    # skips holds here, at the unchanged bound SP_TOL, for single draws and for stacks
    for rng in (np.random.default_rng(300 + n), StackStream(300 + n, n, 0, 64)):
        g = sampling.rand_jacobi(rng, n)
        assert np.shape(g.M)[-2:] == (2 * n, 2 * n)
        check_symplectic(g.M)
        check_symplectic(sampling.rand_symplectic(rng, n))
        # and the algebra element's b and c are symmetric, as its entry check required
        s = sampling.rand_sp_algebra(rng, n)
        assert np.array_equal(s.b, np.swapaxes(s.b, -1, -2))
        assert np.array_equal(s.c, np.swapaxes(s.c, -1, -2))
    # the engine acts on its point draws through unchecked kernels; the one point check
    # holds for them, for single draws and for stacks (a fresh stream: the windows are sized
    # for one report's draws)
    for rng in (np.random.default_rng(400 + n), StackStream(400 + n, n, 0, 64)):
        _point("extended", (*sampling.rand_pq_point(rng, n), sampling._uniform(rng)))
        _point("vu", sampling.rand_vu_point(rng, n))
        _point("ball", sampling.rand_ball_point(rng, n))
