"""Shared test helpers: the flat sites of the pi lattice's central chain
and of its host-chain sites, as ``build_pi_lattice`` lays them out, random
graph generation, a brute-force trapping oracle that searches the
full-graph eigenbasis instead of the subgraph one,
the per-group SVD search of the whole subgraph block, whose trapped space
``find_trapping_modes`` must span, and the per-site supports and node
lists that ``TrappingCertificate`` and ``trap`` must match bit for bit,
a dense reference for the numeric scattering oracle, an eigenvalue
count of the truncated pi lattice by Sylvester's law of inertia, the
propagator of a dense Hamiltonian on all of its sites, survival evolved
on the whole lattice, as evolve did before it split the
lattice into mirror sectors, long-time survival from the dense
eigendecomposition of the chain's mirror sector, as ``long_time_survival``
computed it before it solved for one eigenpair, the mirror blocks sliced
from the dense Hamiltonian, which ``fold_chain`` and a lead written out
give bit for bit, the sector problems that evolve hands
``lead_eigenpairs``, the lead term of its secular function summed over
the lead's poles, the paper's closed forms of the scattering amplitudes,
and four helpers that only the tests use: the Hamiltonian reassembled
from a partition, the resonant (m, n) pairs, a bound state on a
truncated lattice and the plateau of a survival curve."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from fanonet import (
    BoundState,
    LatticeGraph,
    Partition,
    PiLatticeSpec,
    SpectralPropagator,
    SurvivalSeries,
    TrappingCertificate,
    assemble_hamiltonian,
    build_pi_lattice,
    diagonalize,
    open_chain_modes,
    subgraph_hamiltonian,
)
from fanonet import scattering
from fanonet.bound_states import EVANESCENT
from fanonet.spectra import NODE_TOL, _energy_groups, fold_chain, mirror_mode, unfold


def central_sites(spec: PiLatticeSpec) -> list[int]:
    """Flat sites of the central chain a_{n0}..b_{n0}, in path order."""
    return list(range(spec.leads, spec.leads + spec.central_size))


def host_site(spec: PiLatticeSpec, j: int) -> int:
    """Flat site of host-chain site c_j, 1 - leads <= j <= length + leads."""
    return spec.leads + j - 1 + spec.n0 * ((j >= 1) + (j > spec.length))


def random_graph(rng: np.random.Generator, max_sites: int = 12):
    """A random small network with continuous weights and a random partition."""
    n = int(rng.integers(2, max_sites + 1))
    hoppings = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                strength = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
                hoppings.append((i, j, strength))
    potentials = tuple(
        (i, float(rng.uniform(-1.0, 1.0))) for i in range(n) if rng.random() < 0.5
    )
    graph = LatticeGraph(n, tuple(hoppings), potentials)
    blocks = int(rng.integers(2, 4))
    assignment = tuple(int(rng.integers(0, blocks)) for _ in range(n))
    return graph, Partition(graph, assignment)


def brute_force_trapped(graph, partition, l, tol=1e-9):
    """Trapped modes of subgraph ``l`` found from the *full* eigenbasis.

    Within each degenerate full-graph eigenspace, combinations supported
    entirely inside the subgraph are the null space of the outside-amplitude
    matrix.  Returns (energy, orthonormal column block) pairs.
    """
    h = assemble_hamiltonian(graph)
    energies, vectors = np.linalg.eigh(h)
    outside = np.array(
        [s for s in range(graph.site_count) if partition.assignment[s] != l], dtype=int
    )
    scale = np.linalg.norm(h, np.inf)
    groups = []
    start = 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or energies[i] - energies[i - 1] > 1e-8 * scale:
            groups.append(slice(start, i))
            start = i
    found = []
    for group in groups:
        basis = vectors[:, group]
        if len(outside) == 0:
            found.append((float(np.mean(energies[group])), basis))
            continue
        out_amps = basis[outside, :]
        _, svals, vh = np.linalg.svd(out_amps)
        null = [
            vh[r]
            for r in range(basis.shape[1])
            if r >= len(svals) or svals[r] < tol
        ]
        if null:
            block = basis @ np.array(null).T
            block, _ = np.linalg.qr(block)
            found.append((float(np.mean(energies[group])), block))
    return found


def same_trapped_content(certificates, brute, energy_tol=1e-8):
    """Certificates and brute-force results describe the same trapped space."""
    total_cert = len(certificates)
    total_brute = sum(block.shape[1] for _, block in brute)
    if total_cert != total_brute:
        return False
    for cert in certificates:
        matched = [
            block for energy, block in brute if abs(energy - cert.energy) < energy_tol
        ]
        if not matched:
            return False
        block = matched[0]
        projection = block @ (block.T @ cert.vector)
        if np.linalg.norm(projection - cert.vector) > energy_tol:
            return False
    return True


def reference_trapping_modes(graph, partition, l):
    """The trapped modes of subgraph ``l`` from the eigenvectors of its
    whole block, one energy group at a time: the null space of each
    group's leak, the couplings times its eigenvectors, by an SVD, with
    the search's NODE_TOL rule for that leak.  ``find_trapping_modes``
    searched this way before it diagonalized only ker C.  With no coupling
    of nonzero strength every eigenvector is trapped."""
    if not np.any(partition.labels == l):
        raise ValueError(f"subgraph {l} is empty")
    h_l, sites = subgraph_hamiltonian(graph, partition, l)
    local = {s: i for i, s in enumerate(sites)}

    rows: dict[int, np.ndarray] = {}
    for i, j, s in partition.couplings():
        inner, outer = (i, j) if partition.assignment[i] == l else (j, i)
        if partition.assignment[inner] != l:
            continue
        rows.setdefault(outer, np.zeros(len(sites)))[local[inner]] = s
    coupling = np.array([rows[m] for m in sorted(rows)]) if rows else None

    energies, vectors = diagonalize(h_l)
    scale = np.linalg.norm(h_l, np.inf)
    h_full = assemble_hamiltonian(graph)

    certificates = []
    edges = _energy_groups(energies, scale)
    for group in map(slice, edges[:-1], edges[1:]):
        basis = vectors[:, group]
        energy = float(np.mean(energies[group]))
        if coupling is not None and np.max(np.abs(coupling)) > 0:
            leak = coupling @ basis
            _, svals, vh = np.linalg.svd(leak)
            tol = NODE_TOL * max(np.max(np.abs(leak)), np.max(np.abs(coupling)))
            keep = [
                vh[r]
                for r in range(basis.shape[1])
                if r >= len(svals) or svals[r] < tol
            ]
            trapped = [basis @ u for u in keep]
        else:
            trapped = [basis[:, i] for i in range(basis.shape[1])]
        for vec in trapped:
            full = np.zeros(graph.site_count)
            full[sites] = vec / np.linalg.norm(vec)
            residual = float(np.max(np.abs(h_full @ full - energy * full)))
            certificates.append(TrappingCertificate(l, energy, full, residual))
    return certificates


def reference_blocks(certificates):
    """(energy, orthonormal columns) of each energy of ``certificates``, in
    the form of ``brute_force_trapped``."""
    energies = sorted({cert.energy for cert in certificates})
    return [(energy, np.column_stack([c.vector for c in certificates if c.energy == energy]))
            for energy in energies]


def reference_support_sites(cert, tol=NODE_TOL):
    """The sites of ``TrappingCertificate.to_json_dict``, one site at a time."""
    scale = np.max(np.abs(cert.vector))
    return [int(i) for i in np.nonzero(np.abs(cert.vector) > tol * scale)[0]]


def reference_node_sites(cert, sites, tol=NODE_TOL):
    """The sites among ``sites`` where ``cert`` has a wave node, as ``trap``
    prints them, one site at a time."""
    scale = np.max(np.abs(cert.vector))
    return [int(s) for s in sites if abs(cert.vector[s]) < tol * scale]


def reference_json_dict(cert):
    """``TrappingCertificate.to_json_dict``, one site at a time."""
    sites = reference_support_sites(cert)
    return {
        "energy": float(cert.energy),
        "sites": sites,
        "amplitudes": [float(cert.vector[s]) for s in sites],
        "residual": float(cert.residual),
    }


def dense_scatter_reference(n0, length, kappa, kappa0, k, leads, incident="left"):
    """(t, r, psi) from one dense solve of the equations numeric_scatter_oracle
    solves by elimination, for small lattices only: O(N^2) memory.

    Unknowns are the amplitudes of all N sites plus r and t.  The rows are
    the Schrodinger equation on every site but the outermost site of each
    lead, and the two outermost sites of each lead pinned to the plane-wave
    form (incoming + r-reflected on the incident side, t-transmitted on the
    other).  ``psi`` holds the site amplitudes, incoming amplitude 1.  A
    singular system raises numpy's LinAlgError.
    """
    spec = PiLatticeSpec(n0, length, kappa, kappa0, leads)
    h = assemble_hamiltonian(build_pi_lattice(spec).graph)
    n = spec.site_count
    energy = -2.0 * kappa * np.cos(k)
    # host-chain coordinates of the four pinned sites
    left_pair = [(host_site(spec, j), j) for j in (1 - leads, 2 - leads)]
    right_pair = [(host_site(spec, j), j) for j in (length + leads, length + leads - 1)]
    sign = 1 if incident == "left" else -1
    incoming = lambda j: np.exp(sign * 1j * k * (j - 1))
    reflected = lambda j: np.exp(-sign * 1j * k * (j - 1))
    in_pair, out_pair = (left_pair, right_pair) if incident == "left" else (right_pair, left_pair)
    outermost = {in_pair[0][0], out_pair[0][0]}
    system = np.zeros((n + 2, n + 2), dtype=complex)
    rhs = np.zeros(n + 2, dtype=complex)
    row = 0
    for site in range(n):
        if site in outermost:
            continue
        system[row, :n] = h[site]
        system[row, site] -= energy
        row += 1
    for site, j in in_pair:               # psi = incoming + r * reflected
        system[row, site] = 1.0
        system[row, n] = -reflected(j)
        rhs[row] = incoming(j)
        row += 1
    for site, j in out_pair:              # psi = t * transmitted
        system[row, site] = 1.0
        system[row, n + 1] = -incoming(j)
        row += 1
    solution = np.linalg.solve(system, rhs)
    return complex(solution[n + 1]), complex(solution[n]), solution[:n]


def eigenvalues_below(x, n0, length, kappa, kappa0, leads):
    """Eigenvalues below ``x`` of the pi lattice with ``leads`` lead sites
    per side, in O(n0 + length + leads) time.

    By Sylvester's law of inertia they number the negative pivots of an
    LDL^T factorization of H - x.  The lattice is a tree, so eliminating
    it from its leaves (the lead ends and the side-chain tips) inward
    fills in nothing: each eliminated site adds -hop^2/pivot to the
    diagonal of the site it hangs from.  A pivot that is exactly zero is
    nudged to a tiny positive value, which counts an eigenvalue at
    exactly ``x`` as not below it.
    """
    negative = 0

    def eliminate(diagonals, hops):
        """Pivots of a path eliminated in order; returns the last one."""
        nonlocal negative
        pivot = None
        for diagonal, hop in zip(diagonals, hops):
            pivot = diagonal - x - (0.0 if pivot is None else hop * hop / pivot)
            pivot = pivot or 1e-300
            negative += pivot < 0
        return pivot

    # one lead and one side chain, each up to the site before its anchor;
    # the mirror image has the same pivots
    lead = eliminate([0.0] * leads, [kappa] * leads) if leads else None
    side = eliminate([0.0] * n0, [kappa0] * n0)
    negative *= 2
    feed = -kappa0 * kappa0 / side - (kappa * kappa / lead if lead else 0.0)
    host = [0.0] * length
    host[0] += feed
    host[-1] += feed
    eliminate(host, [kappa] * length)
    return negative


def out_of_band_count(n0, length, kappa, kappa0, leads=20000):
    """Eigenvalues of the truncated lattice outside the band [-2*kappa,
    2*kappa]: its evanescent bound states, every state whose decay rate
    gamma is well above 1/leads."""
    sites = 2 * leads + 2 * n0 + length
    edge = 2.0 * kappa
    return eigenvalues_below(-edge, n0, length, kappa, kappa0, leads) + sites \
        - eigenvalues_below(edge, n0, length, kappa, kappa0, leads)


def chain_modes(n0, length, kappa, kappa0, modes):
    """Eigenmodes ``modes`` (1-based, energies ascending) of the isolated
    central chain in columns: the analytic open-chain modes at equal
    hoppings, otherwise the unfolded eigenvectors of the chain's two mirror
    blocks, numbered by ``mirror_mode``."""
    size = 2 * n0 + length
    if kappa == kappa0:
        analytic = open_chain_modes(size, kappa)
        return np.array([analytic[n - 1].amplitudes for n in modes]).T
    chain = build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0)).graph
    blocks = dense_mirror_blocks(assemble_hamiltonian(chain))
    vectors = {s: diagonalize(b)[1] for s, b in zip((1, -1), blocks)}
    return np.array([unfold(vectors[s][:, c], s, size) for s, c in map(mirror_mode, modes)]).T


def dense_long_time_survival(n0, length, kappa, kappa0, mode, states):
    """P_inf of central-chain mode ``mode`` (1-based) over the bound states
    ``states``, with the mode from ``chain_modes``: the analytic mode at
    equal hoppings, otherwise the column of ``diagonalize`` of the dense
    mirror block that holds it."""
    psi0 = chain_modes(n0, length, kappa, kappa0, [mode])[:, 0]
    return sum(float(s.central_amplitudes @ psi0) ** 2 * s.subgraph_weight for s in states)


def dense_propagator(h: np.ndarray) -> SpectralPropagator:
    """The propagator of ``h`` on all of its sites, from ``diagonalize``'s
    O(N^3) dense eigensolve."""
    return SpectralPropagator(*diagonalize(h))


def full_lattice_survival(n0, length, kappa, kappa0, leads, modes, times):
    """P(t) of central-chain modes ``modes`` (1-based), (len(modes), T),
    from the dense propagator of the whole lattice: the initial modes of
    ``chain_modes`` on the central sites, amplitudes observed on them."""
    spec = PiLatticeSpec(n0, length, kappa, kappa0, leads)
    lattice = build_pi_lattice(spec)
    central = central_sites(spec)
    psi0 = np.zeros((lattice.graph.site_count, len(modes)))
    psi0[central] = chain_modes(n0, length, kappa, kappa0, modes)
    amps = dense_propagator(assemble_hamiltonian(lattice.graph)).evolve(psi0, times)
    return np.sum(np.abs(amps[..., central]) ** 2, axis=2).T


def dense_mirror_blocks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a square matrix equal to its mirror image, by
    slices of the matrix and one add or subtract: top = h[:half, :half],
    cross[i, j] = h[i, N-1-j], the blocks top +- cross, and in the even
    block of odd N the middle site's row and column sqrt(2) * h[:half, half]
    and h[half, half].  ValueError unless ``h`` is square and
    mirror-symmetric."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.array_equal(h, h[::-1, ::-1]):
        raise ValueError("matrix is not mirror-symmetric")
    half = len(h) // 2
    top = h[:half, :half]
    cross = h[:half, ::-1][:, :half]
    even, odd = top + cross, top - cross
    if len(h) % 2:
        middle = np.sqrt(2.0) * h[:half, half]
        even = np.block([[even, middle[:, None]], [middle[None, :], h[half, half]]])
    return even, odd


def tridiagonal(diagonal, off_diagonal) -> np.ndarray:
    """The symmetric tridiagonal matrix with these diagonals, written out."""
    return np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)


def sector_problems(spec: PiLatticeSpec):
    """Each sector's ``lead_eigenpairs`` problem of the pi lattice ``spec``
    as evolve poses it, even sector first: the rest, the chain's sector
    block folded from its hoppings and written out, and the spokes, -kappa
    at c_1, sector site n0."""
    problems = []
    for diagonal, off_diagonal in fold_chain(spec.central_hoppings):
        rest = tridiagonal(diagonal, off_diagonal)
        spokes = np.zeros(len(rest))
        spokes[spec.n0] = -spec.kappa
        problems.append((rest, spokes))
    return problems


def with_lead(rest, spokes, leads, kappa) -> np.ndarray:
    """The block of a ``lead_eigenpairs`` problem written out: a uniform
    lead of ``leads`` sites with hopping -``kappa``, whose last site is
    bonded to the rest by ``spokes``."""
    size = leads + len(rest)
    block = np.zeros((size, size))
    block[leads:, leads:] = rest
    lead = np.arange(leads - 1)
    block[lead, lead + 1] = block[lead + 1, lead] = -kappa
    if leads:
        block[leads - 1, leads:] = block[leads:, leads - 1] = spokes
    return block


def lead_pole_sum(m, kappa, end, x):
    """lam plus the lead term of ``lead_eigenpairs``' secular function at
    lam = nu_end + x (an array of offsets), summed over the m - 1 lead
    poles nu_j = -2 kappa cos(j pi / m), as the secular kernel summed it
    wherever it had no closed form: the value lam - sum_j a2_j / (lam -
    nu_j), the slope G' = sum_j a2_j / (lam - nu_j)^2, and the value's
    size |lam| + sum_j |a2_j / (lam - nu_j)|.  ``end`` is a lead pole, or
    a band edge (0 or m).

    Each distance is (nu_end - nu_j) + x, with nu_end - nu_j = 4 kappa
    sin((end + j) pi / 2m) sin((end - j) pi / 2m) and every sine taken of
    an integer multiple of pi / 2m no larger than pi / 2, so that it keeps
    its relative accuracy; a2_j = 2 kappa^2 / m sin^2(j pi / m) alike.
    Where |x| is at most 0.45 of the distance to every lead pole, each
    distance lies within 14 u of its exact value, each term of the value
    within 25 u and each of the slope within 40 u (CHANGES.md)."""
    j = np.arange(1, m)
    x = np.asarray(x, dtype=float)

    def sine(k):
        """sin(k pi / 2m), 0 <= k <= 2m, from the nearer of 0 and pi."""
        return np.sin(np.minimum(k, 2 * m - k) * (np.pi / (2 * m)))

    gaps = 4.0 * kappa * sine(end + j) * np.sign(end - j) * sine(np.abs(end - j))
    a2 = 2.0 * kappa**2 / m * sine(2 * j) ** 2
    lam = -2.0 * kappa * np.sign(m - 2 * end) * sine(np.abs(m - 2 * end)) + x
    d = gaps + x[:, None]
    terms = a2 / d
    return (lam - np.sum(terms, axis=1), np.sum(terms / d, axis=1),
            np.abs(lam) + np.sum(np.abs(terms), axis=1))


class ClosedForms(NamedTuple):
    """The paper's closed forms at one momentum (see ``closed_forms``)."""

    t: complex          # the closed-form transmission amplitude
    r: complex          # the sector kernel's r: the closed forms have none
    big_t: float        # the real form of T
    dual_bound: float   # the dual check's rounding bound on |T - |t|^2|


def closed_forms(k, n0, length, kappa=1.0, kappa0=1.0) -> ClosedForms:
    """The closed-form t and the real form of T at the momentum k, as the
    formula and dual checks of ``scattering._evaluate`` compute them on a
    one-element array, with no check applied.  The public one-momentum
    functions return the sector kernel's values; a test that reads the
    closed forms through them would test the kernel against itself."""
    ev = scattering._evaluate(np.array([k], dtype=float), n0, length, kappa, kappa0)
    return ClosedForms(ev.t_closed[0], ev.r[0], ev.big_t_closed[0], ev.bound["dual"][0])


def decomposed_hamiltonian(graph: LatticeGraph, partition: Partition) -> np.ndarray:
    """Reassemble sum of subgraph blocks plus inter-subgraph couplings.

    Every hopping lands in exactly one bucket, so the result reproduces
    ``assemble_hamiltonian(graph)`` bitwise; kept as a separate code path
    for the consistency check.
    """
    n = graph.site_count
    h = np.zeros((n, n))
    for l in partition.subgraph_indices():
        block, sites = subgraph_hamiltonian(graph, partition, l)
        idx = np.asarray(sites, dtype=int)
        h[np.ix_(idx, idx)] += block
    for i, j, s in partition.couplings():
        h[i, j] = -s
        h[j, i] = -s
    return h


def resonant_existence(n0: int, length: int) -> list[tuple[int, int]]:
    """Integer pairs (m, n) admitting a resonant state at equal hoppings.

    The host-chain grid momentum n*pi/(length-1) must coincide with the
    side-chain grid momentum m*pi/(n0+1), i.e. (length-1)*m = (n0+1)*n
    with m in [1, n0] and n in [1, length-2].
    """
    return [
        (m, n)
        for m in range(1, n0 + 1)
        for n in range(1, length - 1)
        if (length - 1) * m == (n0 + 1) * n
    ]


def bound_state_wavefunction(state: BoundState, leads: int) -> np.ndarray:
    """Evaluate a bound state on the ``leads``-site hard-wall truncation.

    Site order matches build_pi_lattice.  The truncation must swallow the
    evanescent tail: the amplitude at the outermost lead site has to fall
    below 1e-12, otherwise the hard wall would distort the state.
    """
    central = state.central_amplitudes
    first, last = central[state.n0], central[state.n0 + state.length - 1]
    if state.kind == EVANESCENT:
        wall = max(abs(first), abs(last)) * np.exp(-state.gamma * leads)
        if wall >= 1e-12:
            raise ValueError(
                f"evanescent tail {wall:.2e} at the wall; increase leads "
                f"(gamma={state.gamma:.4f} needs roughly {int(28 / state.gamma) + 1})"
            )
    tail = state.z ** np.arange(1, leads + 1)         # 1 .. leads sites out
    psi = np.concatenate([first * tail[::-1], central, last * tail])
    return psi / np.linalg.norm(psi)


def plateau_value(series: SurvivalSeries) -> float:
    """Time average of P over the last quarter of the safe window.

    Cross terms between bound states oscillate; averaging isolates the
    stationary part.
    """
    inside = series.times <= series.safe_horizon
    times = series.times[inside]
    values = series.values[inside]
    tail = values[times >= times[-1] - 0.25 * (times[-1] - times[0])]
    return float(tail.mean())
