"""Op plans of the three library workloads.

Each plan is a fixed function of the seed and the run length: strata
(preset, kind, degree) get fixed op counts, and the seed only draws the
letters, group tags and coefficients inside each stratum.  Every run on
every seed therefore has the same mix of work, in the same order of
kinds, which keeps the percentiles steady while the inputs change.

Op counts are set for a 20-second run (see ``harness.count``).
"""

from __future__ import annotations

import itertools
import random

# Library calls go through the module attribute, so that the span wrappers
# installed for a traced run see them.
from cofreehopf import cotensor, qalg, rotabaxter
from cofreehopf.cotensor import CotensorElement, SmashElement, chain_lift_word, right_translate
from cofreehopf.elements import Element
from cofreehopf.grouphopf import braided_spec
from cofreehopf.scalars import Scalar

from harness import Op, count, interleaved, stream

PRESETS = ("clifford2", "uqg_a2")


def random_word(r: random.Random, dim: int, length: int) -> tuple:
    return tuple(r.randrange(dim) for _ in range(length))


def balanced_word(r: random.Random, dim: int, length: int) -> tuple:
    """Each letter equally often, give or take one, in a seeded order."""
    word = [k % dim for k in range(length)]
    r.shuffle(word)
    return tuple(word)


def random_tag(r: random.Random, spec):
    group = spec.group
    exps = [r.randint(-1, 1) for _ in range(group.n_generators)]
    return group.element(exps)


def _expect_equal(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: output differs from the second route"


# -- star-series -------------------------------------------------------------------

# Ops per preset and total degree.  Degree 8 costs 7-10 s per op today, so
# the sweep stops at 7; one 5+5 pair per preset runs under the deadline.
# As many ops are cheaper than degree 4 (degrees 2 and 3 and the
# multi-term ops) as dearer, so the p50 falls in the middle of the
# degree-4 ops, not in their seed-dependent upper tail.  The p90 falls
# among the twenty degree-6 ones.  Both quantiles rest on many ops
# spread over the run.
STAR_DEGREES = {2: 8, 3: 14, 4: 12, 5: 12, 6: 10, 7: 3}
STAR_MULTI_TERM = 4
STAR_DEADLINE_S = 6.0


def _lifted(spec, word) -> CotensorElement:
    return CotensorElement.from_word(spec, chain_lift_word(spec, word))


def _star_op(key: str, spec, x, y, degree: int, isolate: bool = False) -> Op:
    def smash_route():
        return cotensor.smash_product(cotensor.to_smash(x), cotensor.to_smash(y))

    def check(out):
        if not cotensor.check_chain_condition(spec, out):
            return "product left the chain words"
        return _expect_equal(cotensor.to_smash(out), smash_route(), "star vs smash route")
    return Op(key, lambda: cotensor.star(x, y), check, degree=degree, isolate=isolate,
              reference=smash_route)


def star_series(ctx, seed: int, seconds: float) -> list[Op]:
    ops = []
    for name in PRESETS:
        spec = ctx.presets[name].spec
        for degree, base in STAR_DEGREES.items():
            r = stream(seed, f"star/{name}/d{degree}")
            splits = [(i, degree - i) for i in range(1, degree)]
            r.shuffle(splits)
            for k in range(count(base, seconds)):
                i, j = splits[k % len(splits)]
                x = _lifted(spec, random_word(r, spec.dim, i))
                y = _lifted(spec, random_word(r, spec.dim, j))
                ops.append(_star_op(f"star/{name}/d{degree}#{k}", spec, x, y, degree))
        r = stream(seed, f"star/{name}/multi")
        for k in range(count(STAR_MULTI_TERM, seconds)):
            # q-power coefficients on a two-term left factor; the word
            # lengths are fixed (degrees 2 and 3), so these ops stay
            # below the p50 on every seed
            x = _lifted(spec, random_word(r, spec.dim, 1)).scale(
                Scalar.q_power(r.randint(-2, 2))) + _lifted(
                spec, random_word(r, spec.dim, 2)).scale(
                Scalar.q_power(r.randint(-2, 2), r.choice((1, -1, 2))))
            y = _lifted(spec, random_word(r, spec.dim, 1))
            ops.append(_star_op(f"star/{name}/multi#{k}", spec, x, y, 0))
        r = stream(seed, f"star/{name}/d10")
        x = _lifted(spec, random_word(r, spec.dim, 5))
        y = _lifted(spec, random_word(r, spec.dim, 5))
        # Known to run for minutes: isolated so its growth stays out of peak RSS.
        ops.append(_star_op(f"star/{name}/d10#0", spec, x, y, 10, isolate=True))
    return interleaved(ops)


# -- qsh-smash ---------------------------------------------------------------------

# Word lengths of the smash / quasi-shuffle pairs.  The 4+4 plateau holds
# the middle ranks of the workload, so the p50 is a 4+4 product.
SMASH_PAIRS = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 4), (4, 4),
               (4, 4), (5, 4), (6, 5), (7, 7)]
HOFFMAN_PAIRS = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 7), (8, 8)]
# Long x short pairs (length, short length).  Lengths are fixed so that
# memory and time per op do not drift with the seed.  The gap between 300
# and 460 letters keeps every length clear of the depth at which the
# recursive quasi-shuffle hits Python's recursion limit, which moves with
# the caller's own stack depth.  Ten lengths fail today (they fail fast
# and keep no memory).  With 174 ops in the plan, the p90 then falls in
# the middle of the six 120 x 1 words.
LONG_PAIRS = [(60, 1), (120, 1), (120, 1), (120, 1), (120, 1), (120, 1), (120, 1),
              (200, 1), (240, 1), (300, 1), (50, 2), (80, 2),
              (460, 1), (470, 1), (500, 1), (520, 1), (550, 1), (570, 1), (600, 1),
              (480, 2), (530, 2), (580, 2)]
SMASH_CHECK_DEGREE = 4  # the star route is also run up to this total degree
QSH_DEADLINE_S = 8.0


def _general_clause(bspec, x, y) -> Element:
    """The quasi-shuffle through the general clause alone: the second route
    for every quasi-shuffle in this workload.  Its memo is emptied after each
    call, so that the oracle's memory stays out of the run's peak RSS."""
    out = qalg.quasi_shuffle_general_clause(bspec, x, y)
    memo = getattr(qalg, "_qsh_words_general_only", None)
    if hasattr(memo, "cache_clear"):
        memo.cache_clear()
    return out


def _qsh_op(key: str, bspec, u, v) -> Op:
    x = Element.from_word(u, alphabet=bspec.alphabet)
    y = Element.from_word(v, alphabet=bspec.alphabet)

    def check(out):
        return _expect_equal(out, _general_clause(bspec, x, y),
                             "quasi-shuffle vs general clause")
    return Op(key, lambda: qalg.quasi_shuffle(bspec, x, y), check)


def _smash_op(key: str, spec, u, g, w, g2) -> Op:
    x = SmashElement.of(spec, u, g)
    y = SmashElement.of(spec, w, g2)

    def check(out):
        # (u # g)(w # g') = (u qsh g.w) # gg', the quasi-shuffle taken
        # through the general clause
        qsh = _general_clause(braided_spec(spec), Element.from_word(u, alphabet=spec),
                              spec.act_word(g, w))
        tag = spec.group.multiply(g, g2)
        want = SmashElement(spec, {(word, tag): c for word, c in qsh.terms()})
        reason = _expect_equal(out, want, "smash vs general clause")
        if reason is not None or len(u) + len(w) > SMASH_CHECK_DEGREE:
            return reason
        via_star = cotensor.star(cotensor.from_smash(x), cotensor.from_smash(y))
        return _expect_equal(out, cotensor.to_smash(via_star), "smash vs star route")
    return Op(key, lambda: cotensor.smash_product(x, y), check)


def qsh_smash(ctx, seed: int, seconds: float) -> list[Op]:
    ops = []
    for name in PRESETS:
        spec = ctx.presets[name].spec
        bspec = ctx.braided[name]
        r = stream(seed, f"smash/{name}")
        for k in range(count(36, seconds)):
            i, j = SMASH_PAIRS[k % len(SMASH_PAIRS)]
            u, g = random_word(r, spec.dim, i), random_tag(r, spec)
            w, g2 = random_word(r, spec.dim, j), random_tag(r, spec)
            ops.append(_smash_op(f"smash/{name}#{k}", spec, u, g, w, g2))
        r = stream(seed, f"qsh/{name}")
        for k in range(count(36, seconds)):
            i, j = SMASH_PAIRS[k % len(SMASH_PAIRS)]
            ops.append(_qsh_op(f"qsh/{name}#{k}", bspec, random_word(r, bspec.dim, i),
                               random_word(r, bspec.dim, j)))
    hoffman = ctx.braided["hoffman4"]
    r = stream(seed, "qsh/hoffman4")
    for k in range(count(8, seconds)):
        i, j = HOFFMAN_PAIRS[k % len(HOFFMAN_PAIRS)]
        # Only small letters merge (x_a x_b = x_{a+b}, up to x_4), so the
        # cost of a hoffman4 product rests on how many its words hold: 40 to
        # 370 ms for random 7+7 pairs.  A fixed mix of letters keeps these
        # ops, which sit next to the p90, steady across seeds.
        ops.append(_qsh_op(f"qsh/hoffman4#{k}", hoffman, balanced_word(r, hoffman.dim, i),
                           balanced_word(r, hoffman.dim, j)))
    r = stream(seed, "long")
    for k in range(count(len(LONG_PAIRS), seconds)):
        n, m = LONG_PAIRS[k % len(LONG_PAIRS)]
        bspec = ctx.braided[PRESETS[k % 2]]
        # The short word decides how many letters merge, and so the size
        # of the product: it cycles through the letters instead of being
        # drawn, which keeps time and memory per op steady across seeds.
        short = tuple((k + i) % bspec.dim for i in range(m))
        ops.append(_qsh_op(f"long/{n}x{m}#{k}", bspec, random_word(r, bspec.dim, n),
                           short))
    return interleaved(ops)


# -- axiom-checks -------------------------------------------------------------------

AXIOM_DEADLINE_S = 2.0


def _words(dim: int, max_len: int) -> list[tuple]:
    return [w for n in range(max_len + 1) for w in itertools.product(range(dim), repeat=n)]


def _verdict(result) -> str | None:
    return None if result else f"check failed: {result.describe()}"


def _verdict_op(key: str, call) -> Op:
    """A checker call whose FAIL verdict is a wrong output."""
    return Op(key, call, _verdict)


def axiom_checks(ctx, seed: int, seconds: float) -> list[Op]:
    ops = []
    unital = ctx.unital
    yd = ctx.yd_unital
    words = _words(unital.dim, 2)

    # criterion 08: weight-1 identity on the quasi-shuffle route, also at
    # the scaled weights -1 and q
    base = rotabaxter.qsh_rb_instance(unital)
    instances = [base, base.scaled(Scalar.rational(-1)), base.scaled(Scalar.q_power(1))]
    r = stream(seed, "rb/qsh")
    for k in range(count(3000, seconds)):
        inst = instances[k % 3]
        x = Element.from_word(r.choice(words), alphabet=unital.alphabet)
        y = Element.from_word(r.choice(words), alphabet=unital.alphabet)
        ops.append(_verdict_op(f"rb/qsh#{k}", lambda i=inst, s=[(x, y)]:
                               rotabaxter.check_rota_baxter(i, s)))

    # criterion 08: the smash route
    tags = [yd.group.identity(), yd.group.element([1])]
    smash_words = _words(yd.dim, 2)
    inst = rotabaxter.smash_rb_instance(yd)
    r = stream(seed, "rb/smash")
    for k in range(count(2400, seconds)):
        a = SmashElement.of(yd, r.choice(smash_words), r.choice(tags))
        b = SmashElement.of(yd, r.choice(smash_words), r.choice(tags))
        ops.append(_verdict_op(f"rb/smash#{k}", lambda i=inst, s=[(a, b)]:
                               rotabaxter.check_rota_baxter(i, s)))

    # the star route, through cotensor_rb_operator
    inst_star = rotabaxter.star_rb_instance(yd)
    short = _words(yd.dim, 1)
    r = stream(seed, "rb/star")

    def cotensor_basis(word, tag):
        key = right_translate(yd, chain_lift_word(yd, word), tag) if word else tag
        return CotensorElement(yd, {key: Scalar.one()})
    for k in range(count(300, seconds)):
        x = cotensor_basis(r.choice(short), r.choice(tags))
        y = cotensor_basis(r.choice(short), r.choice(tags))
        ops.append(_verdict_op(f"rb/star#{k}",
                               lambda s=[(x, y)]: rotabaxter.check_rota_baxter(inst_star, s)))

    # criterion 08: the double product of the head-distinguished algebra
    heads = [w for w in words if w]
    r = stream(seed, "double")
    for k in range(count(2000, seconds)):
        u = Element.from_word(r.choice(heads), alphabet=unital.alphabet)
        w = Element.from_word(r.choice(heads), alphabet=unital.alphabet)
        ops.append(_verdict_op(f"double#{k}", lambda s=[(u, w)]:
                               rotabaxter.check_double_product_isomorphism(unital, s)))

    # criterion 06: coproduct compatibility on the three braided specs
    for name in ("clifford2", "uqg_a2", "hoffman4"):
        bspec = ctx.braided[name]
        r = stream(seed, f"bialg/{name}")
        for k in range(count(1000, seconds)):
            du, dv = ((1, 1), (1, 2), (2, 1))[k % 3]
            pair = (random_word(r, bspec.dim, du), random_word(r, bspec.dim, dv))
            ops.append(_verdict_op(f"bialg/{name}#{k}", lambda b=bspec, s=[pair]:
                                   qalg.check_quasi_shuffle_bialgebra(b, s)))

    # criterion 09: smash round trip and the coinvariant projection
    for name in PRESETS:
        spec = ctx.presets[name].spec
        ptags = [spec.group.identity(), spec.group.generator(0)]
        r = stream(seed, f"roundtrip/{name}")
        for k in range(count(1200, seconds)):
            s = SmashElement.of(spec, random_word(r, spec.dim, r.randint(0, 2)),
                                r.choice(ptags))
            ops.append(Op(f"roundtrip/{name}#{k}",
                          lambda s=s: cotensor.to_smash(cotensor.from_smash(s)),
                          lambda out, s=s: _expect_equal(out, s, "smash round trip")))
        r = stream(seed, f"projection/{name}")
        for k in range(count(1200, seconds)):
            word = random_word(r, spec.dim, r.randint(1, 2))
            key = right_translate(spec, chain_lift_word(spec, word), r.choice(ptags))
            x = CotensorElement(spec, {key: Scalar.q_power(1)})
            ops.append(Op(f"projection/{name}#{k}", lambda x=x: cotensor.coinvariant_projection(x),
                          lambda out, x=x: _expect_equal(
                              out, cotensor.coinvariant_projection_direct(x), "projection")))
    return interleaved(ops)


LIBRARY_WORKLOADS = {
    "star-series": (star_series, STAR_DEADLINE_S),
    "qsh-smash": (qsh_smash, QSH_DEADLINE_S),
    "axiom-checks": (axiom_checks, AXIOM_DEADLINE_S),
}
