"""The malformed-value grid, the Python-API counterpart of
``test_config_grid.py``: every public value-type constructor fed NaN, +inf,
-inf, an unknown kind (or measure tag), a wrong shape, a dimension of 0,
non-numeric, ragged or (for classical states and maps and for real arrays)
complex entries, and a non-callable ``evaluate``, wherever it takes such a
value.  Each case raises :class:`ContractViolationError`; none is accepted,
and none raises another exception type."""

import numpy as np
import pytest

from backflow_lab import (
    ContractViolationError,
    DensityMatrix,
    InfoSeries,
    MemoryKernel,
    ProbabilityVector,
    TclGenerator,
    ThermoFieldState,
    TimeGrid,
    Trajectory,
)
from backflow_lab.generator_analysis import SampledGenerator
from backflow_lab.propagation import PropagatorFamily

GRID = TimeGrid.uniform(0.5, 2.0)  # 5 points
N = GRID.n
SPECIAL = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
RHO = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
P = np.array([0.25, 0.75])
ZERO = lambda ts: np.zeros((len(ts), 4, 4))


def spoiled(array, index, value):
    """A float (or complex) copy of ``array`` with ``value`` at ``index``."""
    out = np.array(array) * 1.0
    out[index] = value
    return out


def quantum_maps():
    return np.tile(np.eye(4, dtype=complex), (N, 1, 1))


def classical_maps(imag):
    """Identity maps on two-state vectors; map 2 gains ``imag`` * 1j in its
    first column, with the column sum kept at 1."""
    maps = np.tile(np.eye(2, dtype=complex), (N, 1, 1))
    maps[2, :, 0] += [imag * 1j, -imag * 1j]
    return maps


def cases():
    """(id, constructor call) of every case."""
    out = []
    for tag, x in SPECIAL.items():
        out += [
            (f"TimeGrid[{tag}]", lambda x=x: TimeGrid(spoiled(GRID.points, 3, x))),
            (f"TimeGrid-end[{tag}]", lambda x=x: TimeGrid(spoiled(GRID.points, -1, x))),
            (f"DensityMatrix[{tag}]", lambda x=x: DensityMatrix(spoiled(RHO, (0, 0), x))),
            (f"DensityMatrix-coherence[{tag}]", lambda x=x: DensityMatrix(spoiled(RHO, (0, 1), x))),
            (f"ProbabilityVector[{tag}]", lambda x=x: ProbabilityVector(spoiled(P, 0, x))),
            (f"Trajectory-quantum[{tag}]", lambda x=x: Trajectory(GRID, spoiled([RHO] * N, (2, 1, 0), x), "quantum")),
            (f"Trajectory-classical[{tag}]", lambda x=x: Trajectory(GRID, spoiled([P] * N, (2, 1), x), "classical")),
            (f"PropagatorFamily[{tag}]", lambda x=x: PropagatorFamily(GRID, spoiled(quantum_maps(), (3, 1, 2), x), "quantum", 2)),
            (f"SampledGenerator[{tag}]", lambda x=x: SampledGenerator(GRID, spoiled(np.zeros((N, 4, 4)), (1, 0, 0), x), "quantum", 2)),
            (f"TclGenerator.dim[{tag}]", lambda x=x: TclGenerator(x, "quantum", ZERO)),
            (f"MemoryKernel.dim[{tag}]", lambda x=x: MemoryKernel(x, "quantum", ZERO)),
            (f"MemoryKernel.decay_scale[{tag}]", lambda x=x: MemoryKernel(2, "quantum", ZERO, decay_scale=x)),
            (f"InfoSeries[{tag}]", lambda x=x: InfoSeries(GRID, spoiled(np.zeros(N), 2, x), "vn_entropy")),
            (f"ThermoFieldState[{tag}]", lambda x=x: ThermoFieldState(2, spoiled([1.0, 0, 0, 0], 3, x))),
            (f"ThermoFieldState.dim[{tag}]", lambda x=x: ThermoFieldState(x, [1.0, 0, 0, 0])),
        ]
    for kind in ("Quantum", "banana", ""):
        out += [
            (f"Trajectory-kind[{kind}]", lambda k=kind: Trajectory(GRID, [P] * N, k)),
            (f"PropagatorFamily-kind[{kind}]", lambda k=kind: PropagatorFamily(GRID, quantum_maps(), k, 2)),
            (f"SampledGenerator-kind[{kind}]", lambda k=kind: SampledGenerator(GRID, np.zeros((N, 4, 4)), k, 2)),
            (f"TclGenerator-kind[{kind}]", lambda k=kind: TclGenerator(2, k, ZERO)),
            (f"MemoryKernel-kind[{kind}]", lambda k=kind: MemoryKernel(2, k, ZERO)),
            (f"InfoSeries-tag[{kind}]", lambda k=kind: InfoSeries(GRID, np.zeros(N), k)),
        ]
    out += [
        ("TimeGrid-shape", lambda: TimeGrid(np.zeros((2, 3)))),
        ("DensityMatrix-shape", lambda: DensityMatrix(np.eye(3)[:2] / 2)),
        ("DensityMatrix-vector", lambda: DensityMatrix(P)),
        ("ProbabilityVector-shape", lambda: ProbabilityVector(np.diag(P))),
        ("Trajectory-quantum-shape", lambda: Trajectory(GRID, [RHO] * (N + 1), "quantum")),
        ("Trajectory-quantum-rectangular", lambda: Trajectory(GRID, np.zeros((N, 2, 3)), "quantum")),
        ("Trajectory-classical-shape", lambda: Trajectory(GRID, [P] * (N - 1), "classical")),
        ("PropagatorFamily-shape", lambda: PropagatorFamily(GRID, quantum_maps()[1:], "quantum", 2)),
        ("PropagatorFamily-dim", lambda: PropagatorFamily(GRID, quantum_maps(), "classical", 2)),
        ("SampledGenerator-shape", lambda: SampledGenerator(GRID, np.zeros((N, 4, 4)), "quantum", 3)),
        ("SampledGenerator-reported", lambda: SampledGenerator(TimeGrid.uniform(1.0, 2.0), np.zeros((3, 7, 7)), "banana", 5)),
        ("InfoSeries-shape", lambda: InfoSeries(GRID, np.zeros(N + 1), "vn_entropy")),
        ("ThermoFieldState-shape", lambda: ThermoFieldState(2, [1.0, 0, 0])),
        ("TimeGrid-d0", lambda: TimeGrid(np.zeros(0))),
        ("DensityMatrix-d0", lambda: DensityMatrix(np.zeros((0, 0)))),
        ("ProbabilityVector-d0", lambda: ProbabilityVector(np.zeros(0))),
        ("Trajectory-quantum-d0", lambda: Trajectory(GRID, np.zeros((N, 0, 0)), "quantum")),
        ("Trajectory-classical-d0", lambda: Trajectory(GRID, np.zeros((N, 0)), "classical")),
        ("PropagatorFamily-d0", lambda: PropagatorFamily(GRID, np.zeros((N, 0, 0)), "quantum", 0)),
        ("SampledGenerator-d0", lambda: SampledGenerator(GRID, np.zeros((N, 0, 0)), "classical", 0)),
        ("TclGenerator-d0", lambda: TclGenerator(0, "quantum", ZERO)),
        ("MemoryKernel-d0", lambda: MemoryKernel(0, "classical", ZERO)),
        ("ProbabilityVector-complex", lambda: ProbabilityVector([0.5 + 0.5j, 0.5])),
        ("Trajectory-classical-complex", lambda: Trajectory(GRID, [P + 1e-3j] * N, "classical")),
        ("DensityMatrix-string", lambda: DensityMatrix("x")),
        ("DensityMatrix-ragged", lambda: DensityMatrix([[1, 0], [0]])),
        ("Trajectory-ragged", lambda: Trajectory(GRID, [P] * (N - 1) + [P[:1]], "classical")),
        ("TimeGrid-string", lambda: TimeGrid("x")),
        ("TimeGrid-complex", lambda: TimeGrid(GRID.points + 1e-3j)),
        ("InfoSeries-string", lambda: InfoSeries(GRID, "abcde", "vn_entropy")),
        ("ThermoFieldState-string", lambda: ThermoFieldState(2, "x")),
        ("PropagatorFamily-ragged", lambda: PropagatorFamily(GRID, list(quantum_maps()[1:]) + [np.eye(3)], "quantum", 2)),
        ("PropagatorFamily-classical-complex", lambda: PropagatorFamily(GRID, classical_maps(1e-3), "classical", 2)),
        ("SampledGenerator-classical-complex", lambda: SampledGenerator(GRID, 1e-3j * np.ones((N, 2, 2)), "classical", 2)),
        ("TclGenerator-evaluate", lambda: TclGenerator(2, "quantum", None)),
        ("MemoryKernel-evaluate", lambda: MemoryKernel(2, "classical", None)),
        ("ThermoFieldState-d0", lambda: ThermoFieldState(0, np.zeros(0))),
    ]
    return out


CASES = cases()


@pytest.mark.parametrize("make", [make for _, make in CASES], ids=[case_id for case_id, _ in CASES])
def test_malformed_value_raises_a_contract_violation(make):
    with pytest.raises(ContractViolationError):
        make()


def test_the_well_formed_bases_construct():
    """Each case above spoils one value of a construction that succeeds."""
    TimeGrid(GRID.points)
    DensityMatrix(RHO)
    ProbabilityVector(P)
    Trajectory(GRID, [RHO] * N, "quantum")
    Trajectory(GRID, [P] * N, "classical")
    PropagatorFamily(GRID, quantum_maps(), "quantum", 2)
    SampledGenerator(GRID, np.zeros((N, 4, 4)), "quantum", 2)
    TclGenerator(2, "quantum", ZERO)
    MemoryKernel(2, "quantum", ZERO, decay_scale=0.5)
    InfoSeries(GRID, np.zeros(N), "vn_entropy")
    ThermoFieldState(2, [1.0, 0, 0, 0])


def test_classical_maps_with_a_zero_imaginary_part_become_real():
    family = PropagatorFamily(GRID, classical_maps(0.0), "classical", 2)
    assert family.maps.dtype == np.float64
    assert np.array_equal(family.maps, np.tile(np.eye(2), (N, 1, 1)))
    with pytest.raises(ContractViolationError, match="classical maps must be real"):
        PropagatorFamily(GRID, classical_maps(1e-3), "classical", 2)
