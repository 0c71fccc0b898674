"""Component-form element kernels against the einsum formulas they replaced.

The ``ref_*`` functions are the per-element einsum versions of the rescaled
energy, its gradient, the linear-elastic energy, the 2D inner skew
minimum and the domain mean, kept here as references.  The kernels sum
the same terms in another order, so they must agree to 1e-13 relative,
and the orientation barrier must trip at the same states.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractionlab.algebra import Density, skew2
from tractionlab.fem import (DisplacementField, element_strains,
                             elastic_energy, integral_mean, linear_field)
from tractionlab.limit import _NEGATIVE_PART_SNAP, inner_skew_minimum
from tractionlab.loads import assemble_loads
from tractionlab.nonlinear import (InadmissibleStateError, _deformation, eval_rescaled,
                                   rescaled_gradient)

from conftest import body_spec, jittered_mesh, zero_loads

RTOL = 1e-13


def ref_stored_rescaled(mesh, density, values, h):
    G = DisplacementField(mesh, values).gradient_columns().reshape(-1, 2, 2)
    F = h * G
    F[:, 0, 0] += 1.0
    F[:, 1, 1] += 1.0
    dets = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    if np.any(dets <= 0.0):
        return np.inf
    Eh = h * 0.5 * (G + np.swapaxes(G, 1, 2)) \
        + (0.5 * h * h) * np.einsum("mki,mkj->mij", G, G)
    per = 4.0 * density.mu * np.einsum("mij,mij->m", Eh, Eh) \
        + 2.0 * density.lam * np.einsum("mii->m", Eh) ** 2
    return float(np.sum(mesh.areas * per)) / (h * h)


def ref_rescaled_gradient(mesh, density, assembly, field, h):
    G = field.gradient_columns().reshape(-1, 2, 2)
    F = h * G
    F[:, 0, 0] += 1.0
    F[:, 1, 1] += 1.0
    dets = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    if np.any(dets <= 0.0):
        raise InadmissibleStateError("orientation lost")
    Eh = h * 0.5 * (G + np.swapaxes(G, 1, 2)) \
        + (0.5 * h * h) * np.einsum("mki,mkj->mij", G, G)
    D = 8.0 * density.mu * Eh \
        + 4.0 * density.lam * np.einsum("mii->m", Eh)[:, None, None] * np.eye(2)
    dPsi = np.einsum("mik,mkj->mij", F, D) / h
    out = (mesh.G.T @ (mesh.areas[:, None, None] * dPsi).reshape(-1)).reshape(-1, 2)
    return out - assembly.load_vector


def ref_elastic_energy(mesh, density, assembly, field):
    E = element_strains(field)
    stored = float(np.sum(mesh.areas * (
        4.0 * density.mu * np.einsum("mij,mij->m", E, E)
        + 2.0 * density.lam * np.einsum("mii->m", E) ** 2
    )))
    return stored - float(np.sum(assembly.load_vector * field.values))


def ref_inner_skew_minimum(mesh, density, strains):
    dq_eye = density.quadratic_gradient(np.eye(2))
    per_elem = np.einsum("ij,mij->m", dq_eye, strains)
    num = float(np.sum(mesh.areas * per_elem))
    den = mesh.area * density.quadratic(np.eye(2))
    snap = _NEGATIVE_PART_SNAP * (1.0 + float(np.sum(mesh.areas * np.abs(per_elem))))
    a2 = (-num / den) if num < -snap else 0.0
    offset = strains + (0.5 * a2) * np.eye(2)
    energy = float(np.sum(mesh.areas * (
        4.0 * density.mu * np.einsum("mij,mij->m", offset, offset)
        + 2.0 * density.lam * np.einsum("mii->m", offset) ** 2
    )))
    return skew2(math.sqrt(a2)), energy, a2


def ref_integral_mean(mesh, values):
    v = np.asarray(values).reshape(mesh.n_nodes, 2)
    sums = v[mesh.elements].sum(axis=1)
    return (mesh.areas[:, None] * sums).sum(axis=0) / (3.0 * mesh.area)


def assert_close(value, ref, scale=None):
    scale = np.max(np.abs(ref)) if scale is None else scale
    assert np.max(np.abs(np.asarray(value) - ref)) <= RTOL * scale


@st.composite
def cases(draw):
    """A jittered mesh, (h, mu, lam), a body-force assembly and a nodal field.

    The field amplitude spans two decades up to about the one where
    det(I + h grad v) turns nonpositive somewhere: about one draw in eight
    loses orientation.
    """
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = jittered_mesh(nx, ny, rng)
    h = draw(st.floats(1e-3, 1.0))
    density = Density(draw(st.floats(0.1, 10.0)),
                      draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))))
    A = rng.standard_normal((2, 2))
    assembly = assemble_loads(mesh, body_spec(tuple(A.ravel())))
    amplitude = 10.0 ** draw(st.floats(-1.5, -0.1)) / (h * max(nx, ny))
    values = amplitude * rng.standard_normal((mesh.n_nodes, 2))
    return mesh, h, density, assembly, DisplacementField(mesh, values)


class TestKernelsAgainstEinsum:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=cases())
    def test_rescaled_energy_and_gradient(self, case):
        mesh, h, density, assembly, field = case
        ref = ref_stored_rescaled(mesh, density, field.values, h)
        value = eval_rescaled(density, zero_loads(mesh), field, h)
        if np.isinf(ref):
            assert value == np.inf
            with pytest.raises(InadmissibleStateError):
                rescaled_gradient(density, assembly, field, h)
            assert np.any(_deformation(field, h)[1] <= 0.0)
            return
        assert_close(value, ref)
        assert_close(rescaled_gradient(density, assembly, field, h),
                     ref_rescaled_gradient(mesh, density, assembly, field, h))
        assert np.all(_deformation(field, h)[1] > 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=cases())
    def test_linear_energy_inner_minimum_and_mean(self, case):
        mesh, _, density, assembly, field = case
        ref = ref_elastic_energy(mesh, density, assembly, field)
        work = float(np.sum(assembly.load_vector * field.values))
        # relative to the stored part and the load work, which may cancel
        assert_close(elastic_energy(density, assembly, field), ref,
                     scale=abs(ref + work) + abs(work))

        for v in (field, DisplacementField(mesh, -field.values)):
            W, energy, a2 = inner_skew_minimum(density, v)
            W_ref, energy_ref, a2_ref = ref_inner_skew_minimum(mesh, density,
                                                               element_strains(v))
            assert a2 == a2_ref and np.array_equal(W, W_ref)
            assert_close(energy, energy_ref)

        assert_close(integral_mean(mesh, field.values), ref_integral_mean(mesh, field.values),
                     scale=float(ref_integral_mean(mesh, np.abs(field.values)).max()))

    @pytest.mark.parametrize("h", [0.5, 0.1, 0.025])
    def test_barrier_at_uniaxial_compression(self, h):
        # v = (c x1, 0) has det(I + h grad v) = 1 + h c: zero at c = -1/h
        mesh = jittered_mesh(4, 3, np.random.default_rng(9))
        density = Density(1.0, 1.0)
        assembly = assemble_loads(mesh, body_spec((0.0, 0.0, 0.0, 0.0)))
        for c in (-1.0 / h, -2.0 / h, -0.999 / h):
            field = linear_field(mesh, [[c, 0.0], [0.0, 0.0]])
            ref = ref_stored_rescaled(mesh, density, field.values, h)
            value = eval_rescaled(density, zero_loads(mesh), field, h)
            assert np.isinf(value) == np.isinf(ref)
            if np.isinf(ref):
                with pytest.raises(InadmissibleStateError):
                    rescaled_gradient(density, assembly, field, h)
            else:
                assert_close(value, ref)
