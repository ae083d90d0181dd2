"""Gaussian model of two cavity arrays driven by a shared squeezed reservoir.

Geometry and mode indexing
--------------------------
Two mutually non-interacting chains of ``n_sites`` cavities.  Code
indexes the 2N modes 0-based: sites ``0..N-1`` form array one,
``N..2N-1`` array two.  Nearest neighbours within each chain are coupled
by hopping rates ``eta`` (bond b of array one couples modes b and b+1;
bond b of array two couples modes N+b and N+b+1).  Every cavity decays
locally at rate ``kappa[j]`` into its own vacuum port.  The only link
between the arrays is a broadband two-mode squeezed reservoir with
statistics ``(nbar, mbar)`` that pumps the two first sites (modes 0 and
N) at rate ``zeta``.

Steady moments
--------------
Ladder moments evolve as d<a>/dt = L <a> with ``L = -i*eta(hopping) -
diag(kappa_j + zeta*[j is driven])``, block diagonal with one block
``L_i`` per array.  Each chain is bipartite, so the gauge ``a_j -> i^j a_j``
(``P = diag(1, i, -1, -i, ...)``) makes ``G_i = P L_i P^*`` real: ``-eta_b``
above the diagonal, ``+eta_b`` below it and ``-(kappa_j + zeta*[j is
driven])`` on it.  The package builds only these, so :func:`gauged_drift`
holds the real ``(2, N, N)`` stack ``(G_1, G_2)``.  The steady state is
Gaussian and zero-mean; vacuum loss adds no noise in normal order, so only
two kinds of second moment are non-zero (one isolated driven pair gets
``nbar`` and ``-mbar``):

    N_i = <a_j^dag a_k> in array i:  conj(L_i) N_i + N_i L_i^T = -2 zeta nbar e0 e0^T
    M   = <a_j^(1) a_k^(2)>:         L_1 M + M L_2^T = +2 zeta mbar e0 e0^T

They are real in the gauge as well: ``N_i = P n_i P^*`` and ``M = P^* m
P^*`` with ``G_i n_i + n_i G_i^T = -2 zeta nbar e0 e0^T`` and ``G_1 m + m
G_2^T = 2 zeta mbar e0 e0^T``.  :func:`steady_state` solves both on one real
Schur form (LAPACK ``dgees``, :func:`entrep.gaussian.schur_form`) per
distinct array drift, and certifies them physical
(:func:`entrep.gaussian.require_physical`), in real arithmetic;
:attr:`SteadyMoments.forms` carries both arrays' forms on to
every later resolvent, kernel and decay rate.  The solve runs on stacks of
independent problems of one size: :func:`disorder_sweep` puts both arrays'
drift blocks of every bond draw of a disorder level into one ``(2S, N, N)``
stack and solves the level in one call, and :func:`steady_state` is the
same solve on a stack of one configuration.  Each pair (j, N+j) is a
phase-insensitive two-mode state, so its smallest partially transposed
symplectic eigenvalue is ``n_1 + n_2 + 1 - sqrt((n_1 - n_2)^2 + 4 |m|^2)`` in
its occupations and cross-moment (Serafini, Illuminati & De Siena, J. Phys.
B 37, L21, 2004), which :func:`entrep.gaussian.pair_logneg` evaluates.

Entanglement replication: with kappa = 0 every pair (j, N+j) relaxes to
a two-mode squeezed thermal state with the *same* (nbar, mbar) as the
reservoir — the per-pair logarithmic negativity then equals the driving
field's value exactly, for any chain length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .baselines import driving_entanglement
from .errors import ConfigInvalid, as_integer, as_real, as_seed
from .gaussian import (
    SchurForm,
    chain_phases,
    check_drive,
    normalized_logneg,
    pair_logneg,
    require_physical,
    schur_form,
    solve_rank_one_sylvester,
    uncertainty_margin,
)

__all__ = [
    "ArrayConfig",
    "DisorderResult",
    "DisorderSpec",
    "EntanglementProfile",
    "SteadyMoments",
    "disorder_sweep",
    "drive_split",
    "gauged_drift",
    "pair_entanglement_profile",
    "steady_state",
]


def _rates(key: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats >= 0, entry i named ``key[i]``; text is refused."""
    try:
        if isinstance(values, str):
            raise TypeError
        values = tuple(values)
    except TypeError as exc:
        raise ConfigInvalid(f"{key} must hold numbers, got {values!r}") from exc
    return tuple(as_real(f"{key}[{i}]", value, 0.0) for i, value in enumerate(values))


@dataclass(frozen=True)
class ArrayConfig:
    """Full physical parametrization of the two driven arrays.

    Parameters
    ----------
    n_sites
        Sites per array (N >= 1); the model has 2N modes in total.
    eta
        2(N-1) hopping rates: bonds of array one, then bonds of array two.
    kappa
        2N local decay rates, one per cavity.
    zeta
        Pump rate of the squeezed reservoir on the two first sites.
    nbar, mbar
        Reservoir occupation and cross-correlation; physical states need
        mbar <= sqrt(nbar*(nbar+1)).
    g
        N atom-field couplings, one per pair; all zero selects the pure
        cavity (Gaussian) model.  Used only by the spin-dynamics layer.

    Rates and occupations are stored as floats; one that is not a finite real
    >= 0 (:func:`entrep.errors.as_real`) raises ConfigInvalid naming it.
    """

    n_sites: int
    eta: tuple[float, ...]
    kappa: tuple[float, ...]
    zeta: float
    nbar: float
    mbar: float
    g: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        n = as_integer("n_sites", self.n_sites, 1)
        object.__setattr__(self, "n_sites", n)
        for key, values, size, what in (
            ("eta", _rates("eta", self.eta), 2 * (n - 1), "bond couplings"),
            ("kappa", _rates("kappa", self.kappa), 2 * n, "decay rates"),
            ("g", _rates("g", self.g) or (0.0,) * n, n, "atom couplings"),
        ):
            if len(values) != size:
                raise ConfigInvalid(f"expected {size} {what} for n_sites={n}, got {len(values)}")
            object.__setattr__(self, key, values)
        object.__setattr__(self, "zeta", as_real("zeta", self.zeta, 0.0))
        nbar, mbar = check_drive(self.nbar, self.mbar)
        object.__setattr__(self, "nbar", nbar)
        object.__setattr__(self, "mbar", mbar)

    @classmethod
    def homogeneous(
        cls,
        n_sites: int,
        *,
        eta: float = 1.0,
        kappa: float = 0.0,
        zeta: float | None = None,
        nbar: float = 0.0,
        mbar: float = 0.0,
        g: float = 0.0,
    ) -> "ArrayConfig":
        """Uniform couplings/rates; ``zeta`` defaults to ``eta``."""
        n_sites = as_integer("n_sites", n_sites, 1)
        if zeta is None:
            zeta = eta
        return cls(
            n_sites=n_sites,
            eta=(eta,) * (2 * (n_sites - 1)),
            kappa=(kappa,) * (2 * n_sites),
            zeta=zeta,
            nbar=nbar,
            mbar=mbar,
            g=(g,) * n_sites,
        )

    @property
    def n_modes(self) -> int:
        return 2 * self.n_sites

    @property
    def driven_modes(self) -> tuple[int, int]:
        """0-based indices of the two reservoir-pumped modes."""
        return 0, self.n_sites

    @property
    def is_gaussian(self) -> bool:
        """True when all atom couplings vanish (pure cavity model)."""
        return all(v == 0.0 for v in self.g)

    @property
    def field_only(self) -> "ArrayConfig":
        """The same arrays with every atom coupling off: the pure cavity model."""
        return replace(self, g=(0.0,) * self.n_sites)

    @property
    def mirrored(self) -> bool:
        """True when both arrays have the same bonds and local losses.

        The drive and the atom couplings are shared, so the two arrays are
        then mirror images: they have one ladder drift block, and every
        spin or Fock generator commutes with their exchange.
        """
        n = self.n_sites
        return self.eta[: n - 1] == self.eta[n - 1 :] and self.kappa[:n] == self.kappa[n:]


@dataclass(frozen=True, eq=False)
class SteadyMoments:
    """The non-zero steady second moments, sites 0-based within each array.

    ``n1[j, k] = <a_j^dag a_k>`` in array one, ``n2`` the same in array
    two, ``m[j, k] = <a_j a_{N+k}>`` across them, and ``forms`` the Schur
    forms of the blocks of :func:`gauged_drift` they were solved from
    (``forms.gauged``), array two's a copy of array one's when they are equal.
    :func:`steady_state` certifies the moments physical before it returns
    them; their :attr:`uncertainty_margin` is taken only when it is read.
    """

    n1: np.ndarray
    n2: np.ndarray
    m: np.ndarray
    forms: SchurForm

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "m"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=complex))
        for arr in (self.n1, self.n2, self.m):
            arr.flags.writeable = False

    def stacked(self) -> np.ndarray:
        """The 4N x 4N moments ``<abar abar^T>``, ``abar = (a_1..a_2N, adag_1..adag_2N)``.

        Quarters: ``<a a> = [[0, M], [M^T, 0]]``, ``<a adag> = I + <adag
        a>^T``, ``<adag a> = diag(N_1, N_2)`` and ``<adag adag> = conj <a a>``.
        """
        zero = np.zeros_like(self.m)
        pairs = np.block([[zero, self.m], [self.m.T, zero]])
        normal = np.block([[self.n1, zero], [zero, self.n2]])
        return np.block([[pairs, np.eye(len(normal)) + normal.T], [normal, pairs.conj()]])

    @cached_property
    def uncertainty_margin(self) -> float:
        """:func:`entrep.gaussian.uncertainty_margin` of the stored moments, taken when first read.

        Moments that :func:`steady_state` returned have passed the same
        bound, so only a state built by hand can raise NonPhysicalResult here.
        """
        return float(uncertainty_margin(self.n1, self.n2, self.m))


def read_only(values, dtype=float) -> np.ndarray:
    """A copy of ``values`` as a ``dtype`` array (``None`` keeps its own) that cannot be written to."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EntanglementProfile:
    """Per-pair steady-state entanglement, plus the reservoir reference.

    ``pair_labels[i] = i+1`` labels the pair of ``raw[i]`` (site i+1 of
    array one, site i+1 of array two) in the 1-based convention used in all
    output tables.  Labels and normalized values are derived, never stored.
    """

    raw: np.ndarray
    drive_raw: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "raw", read_only(self.raw))

    @property
    def pair_labels(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.raw) + 1))

    @property
    def normalized(self) -> np.ndarray:
        """``raw / (1 + raw)`` of every pair."""
        return read_only(normalized_logneg(self.raw))


#: Most entries in one stacked array of a disorder solve: a level is solved
#: in chunks of samples whose largest stacks, the real ``(S, 2N, 2N)``
#: uncertainty blocks (two when the arrays differ) and the Cholesky factors
#: of one of them, stay below this (8 MiB each), so peak memory does not
#: grow with the number of samples.
_STACK_ENTRIES = 2**20


def _gauged_blocks(cfg: ArrayConfig, bonds: np.ndarray) -> np.ndarray:
    """The arrays' gauged drift blocks for every row of ``bonds`` taken as ``cfg.eta``.

    ``bonds`` is ``(S, 2(N-1))``; returns the real ``(2S, N, N)`` stack of
    array one's S blocks followed by array two's.  Raises ConfigInvalid when
    an atom coupling is on.
    """
    if not cfg.is_gaussian:
        raise ConfigInvalid(
            "the Gaussian cavity branch requires all atom couplings g = 0; "
            "use the spin-dynamics layer for g > 0"
        )
    n, samples = cfg.n_sites, len(bonds)
    hops = bonds.reshape(samples, 2, n - 1).swapaxes(0, 1)
    # each array's flattened blocks; strided slices pick their diagonals
    blocks = np.zeros((2, samples, n * n))
    blocks[..., 1 :: n + 1] -= hops
    blocks[..., n :: n + 1] += hops
    blocks[..., :: n + 1] -= np.array(cfg.kappa).reshape(2, 1, n)
    blocks[..., 0] -= cfg.zeta
    return blocks.reshape(2 * samples, n, n)


def gauged_drift(cfg: ArrayConfig) -> np.ndarray:
    """First-moment drift of the cavity fields in the chain gauge, one block per array.

    Returns the real ``(2, N, N)`` stack ``(G_1, G_2)``, ``G_i = P L_i P^*``,
    of the arrays' blocks of ``L`` with d<a>/dt = L <a>: ``-eta_b`` above
    the diagonal and ``+eta_b`` below it on each bond b within an array, and
    ``-(kappa_j + zeta*[j driven])`` on the diagonal.  The arrays never
    couple coherently, so ``L`` has no other entries.  Raises ConfigInvalid
    when an atom coupling is on.
    """
    return _gauged_blocks(cfg, np.array([cfg.eta]))


def _stacked_moments(cfg: ArrayConfig, bonds: np.ndarray) -> tuple:
    """Steady ``(n1, n2, m, forms)`` of ``cfg`` for every row of ``bonds`` as its ``eta``.

    One solve on stacks: ``n1``, ``n2`` and ``m`` are the real ``(S, N, N)``
    moments in the chain gauge (``N_i = P n_i P^*``, ``M = P^* m P^*``),
    certified physical sample by sample
    (:func:`entrep.gaussian.require_physical`).  Both
    arrays' drifts form one ``(2S, N, N)`` stack, so one Schur call and one
    Sylvester call serve both arrays' occupations; a refused slice ``S + s``
    is sample s of array two.  When array two's drifts equal array one's,
    so do its moments, and only array one is solved.  ``forms`` is the Schur
    forms of the whole stack.  A source ``-2 zeta nbar`` or ``2 zeta mbar``
    that overflows is refused as ConfigInvalid before any solve.
    """
    normal_source = as_real("-2 zeta nbar", -2.0 * cfg.zeta * cfg.nbar)
    pair_source = as_real("2 zeta mbar", 2.0 * cfg.zeta * cfg.mbar)
    samples = len(bonds)
    drifts = _gauged_blocks(cfg, bonds)
    mirrored = np.array_equal(drifts[:samples], drifts[samples:])
    forms = schur_form(drifts[:samples] if mirrored else drifts)
    normal = solve_rank_one_sylvester(forms, forms, normal_source)
    if mirrored:
        forms = forms[np.tile(np.arange(samples), 2)]
    m = solve_rank_one_sylvester(forms[:samples], forms[samples:], pair_source)
    n1, n2 = normal[:samples], normal[-samples:]
    require_physical(n1, n2, m, mirrored=mirrored)
    return n1, n2, m, forms


def _pair_lognegs(n1: np.ndarray, n2: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Raw negativity of every pair (j, N+j), for one set of moments or a stack, in either gauge.

    The gauge's phases leave each pair's occupations and ``|m|`` as they are.
    """
    n1, n2, m = (moments.diagonal(axis1=-2, axis2=-1) for moments in (n1, n2, m))
    return pair_logneg(n1.real, n2.real, m)


def _cross_moments(gauged: np.ndarray) -> np.ndarray:
    """``M = P^* m P^*`` of cross moments ``m`` solved in the chain gauge."""
    phases = chain_phases(len(gauged))
    return phases.conj()[:, None] * gauged * phases.conj()


def steady_state(cfg: ArrayConfig) -> SteadyMoments:
    """Unique Gaussian steady state of the driven arrays.

    Raises NotHurwitz when no damping channel is open (zeta = 0 and all
    kappa = 0), NoConvergence on a failed or inaccurate solve, and
    NonPhysicalResult when the moments violate the uncertainty relation.
    """
    n1, n2, m, forms = _stacked_moments(cfg, np.array([cfg.eta]))
    phases = chain_phases(cfg.n_sites)
    n1, n2 = phases[:, None] * np.concatenate((n1, n2)) * phases.conj()
    return SteadyMoments(n1, n2, _cross_moments(m[0]), forms)


def drive_split(cfg: ArrayConfig) -> tuple[SteadyMoments, np.ndarray]:
    """Steady state of ``cfg`` without its cross-correlation, and its cross moments per unit mbar.

    ``mbar`` enters only the source ``2 zeta mbar`` of the cross moments: the
    occupations ``N_i`` and the Schur forms do not depend on it, and ``M``
    is linear in it.  So the steady state at any ``mbar`` has the returned
    state's ``N_1``, ``N_2`` and forms and ``M = mbar`` times the returned
    matrix, and a sweep of ``mbar`` solves the field once.  ``cfg.mbar`` is
    not read; the returned state's ``M`` is zero.
    """
    free = steady_state(replace(cfg, mbar=0.0))
    source = as_real("2 zeta", 2.0 * cfg.zeta)
    return free, _cross_moments(solve_rank_one_sylvester(free.forms[:1], free.forms[1:], source)[0])


def pair_entanglement_profile(cfg: ArrayConfig) -> EntanglementProfile:
    """Logarithmic negativity of every inter-array pair (j, N+j), in closed form.

    The reference entry is the reservoir's own entanglement — the exact
    value every pair reaches in the lossless (kappa = 0) model.
    """
    moments = steady_state(cfg)
    raw = _pair_lognegs(moments.n1, moments.n2, moments.m)
    return EntanglementProfile(raw=raw, drive_raw=driving_entanglement(cfg.nbar, cfg.mbar))


@dataclass(frozen=True)
class DisorderSpec:
    """Ensemble of hopping-disordered arrays.

    Each sample perturbs every bond independently: ``eta_b = eta0 + xi_b``
    with ``xi_b`` uniform on ``[-delta_xi/2, +delta_xi/2]`` (all 2(N-1)
    bonds of both arrays, drawn independently).  ``delta_xi < eta0``
    keeps every coupling strictly positive; a base with no bonds (one
    site per array) has nothing to perturb and admits any width.
    Sampling is deterministic under ``seed`` and independent of worker
    count.
    """

    base: ArrayConfig
    delta_xi: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", as_integer("samples", self.samples, 1))
        object.__setattr__(self, "seed", as_seed(self.seed))
        eta = self.base.eta
        if len(set(eta)) > 1:
            raise ConfigInvalid("disorder ensembles need a homogeneous base coupling")
        object.__setattr__(self, "delta_xi", as_real("delta_xi", self.delta_xi, 0.0))
        if eta and self.delta_xi > 0.0 and self.delta_xi >= self.eta0:
            raise ConfigInvalid(
                f"delta_xi={self.delta_xi} too large for base coupling {self.eta0}"
            )

    @property
    def eta0(self) -> float:
        return self.base.eta[0] if self.base.eta else 0.0


@dataclass(frozen=True, eq=False)
class DisorderResult:
    """Elementwise sample statistics of the normalized pair profile, per pair label."""

    raw_mean: np.ndarray
    norm_mean: np.ndarray
    norm_min: np.ndarray
    norm_max: np.ndarray
    norm_sem: np.ndarray
    drive_raw: float
    samples: int

    def __post_init__(self) -> None:
        for field in ("raw_mean", "norm_mean", "norm_min", "norm_max", "norm_sem"):
            object.__setattr__(self, field, read_only(getattr(self, field)))

    @property
    def pair_labels(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.raw_mean) + 1))


def disorder_sweep(spec: DisorderSpec) -> DisorderResult:
    """Sample statistics of the pair profile over hopping disorder.

    Each sample draws its bonds from its own child of a single seed
    sequence, so results are bitwise-reproducible for a fixed seed;
    aggregation order is fixed by sample index.  The level is one stacked
    steady-state solve: the drawn ``(S, 2(N-1))`` bonds become one ``(2S,
    N, N)`` stack of both arrays' drift blocks, with no per-sample config
    or profile.  It is solved in chunks of samples whose stacked arrays
    hold at most ``_STACK_ENTRIES`` entries, and the chunks are
    joined in sample order before the statistics, so chunking never
    changes a result.  A zero-width
    ensemble is its one homogeneous profile: averaging hundreds of
    identical rows would smear it by tens of ulps.
    """
    base = spec.base
    n_sites = base.n_sites
    if spec.delta_xi == 0.0 or not base.eta:
        bonds = np.array([base.eta])
    else:
        half = 0.5 * spec.delta_xi
        bonds = np.array(
            [
                spec.eta0 + np.random.default_rng(child).uniform(-half, half, size=len(base.eta))
                for child in np.random.SeedSequence(spec.seed).spawn(spec.samples)
            ]
        )
    chunk = max(1, _STACK_ENTRIES // (2 * n_sites) ** 2)
    raw = np.concatenate(
        [
            _pair_lognegs(*_stacked_moments(base, bonds[start : start + chunk])[:3])
            for start in range(0, len(bonds), chunk)
        ]
    )
    norm = normalized_logneg(raw)
    if len(norm) > 1:
        sem = norm.std(axis=0, ddof=1) / np.sqrt(len(norm))
    else:
        sem = np.zeros(norm.shape[1])
    return DisorderResult(
        raw_mean=raw.mean(axis=0),
        norm_mean=norm.mean(axis=0),
        norm_min=norm.min(axis=0),
        norm_max=norm.max(axis=0),
        norm_sem=sem,
        drive_raw=driving_entanglement(base.nbar, base.mbar),
        samples=spec.samples,
    )
