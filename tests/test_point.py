"""The one constitutive law and forcing behind both point models."""
import numpy as np
import pytest

from thermoform import ferroelectric as fe
from thermoform import point
from thermoform import thermoelastic as te
from thermoform.expr import ScalarField
from thermoform.point import Constitutive, Forcing, ModelError


def law(coords, **params):
    return Constitutive(ScalarField.from_text("ln(eps) - 0.15*H1^2", coords),
                        **{"rho": 1.0, "k": 1.0, **params})


def te_state():
    return te.ThermoelasticState(eps=0.5, F=np.eye(3), H=np.array([0.3, 0.0, 0.0]))


def fe_state():
    return fe.FerroelectricState(eps=0.5, F=np.eye(3), H=np.array([0.3, 0.0, 0.0]),
                                 pi=np.zeros(3), grad_pi=np.zeros((3, 3)), u=np.zeros(3),
                                 grad_u=np.zeros((3, 3)))


def test_model_names_alias_the_point_types():
    assert te.ThermoelasticConstitutive is fe.FerroelectricConstitutive is Constitutive
    assert te.ThermoelasticForcing is fe.FerroelectricForcing is Forcing


@pytest.mark.parametrize("coords", [point.BASE_COORDS, point.FE_COORDS], ids=["13", "25"])
@pytest.mark.parametrize("params", [{"rho": 0.0}, {"k": -1.0}, {"inertia": 0.0}],
                         ids=["rho", "k", "inertia"])
def test_parameters_are_checked_for_both_models(coords, params):
    with pytest.raises(ModelError, match="rho, k must be positive and inertia nonzero"):
        law(coords, **params)


def test_potential_must_be_over_a_model_coordinate_list():
    with pytest.raises(ModelError, match="13 or the 25 base coordinates"):
        law(point.BASE_COORDS + ("t",))


def test_forcing_channels_default_to_zero():
    f = Forcing()
    for name, shape in [("E_ext", (3,)), ("L", (3, 3)), ("divq", ()), ("poynting_term", ()),
                        ("div_e_tensor", (3,)), ("div_J_grad_u", (3, 3)),
                        ("source_grad_u", (3, 3))]:
        value = getattr(f, name)(0.7)
        assert np.shape(value) == shape and not np.any(value)
    # the two models listed their channels in different orders, so none is positional
    with pytest.raises(TypeError):
        Forcing(lambda t: np.eye(3))


@pytest.mark.parametrize("coords, state", [(point.BASE_COORDS, fe_state),
                                           (point.FE_COORDS, te_state)],
                         ids=["13-law-37-state", "25-law-13-state"])
def test_a_state_of_the_other_model_is_a_model_error(coords, state):
    # the 13-coordinate law with a ferroelectric state used to end in a numpy broadcast ValueError
    c, x = law(coords), state()
    with pytest.raises(ModelError, match="different point models"):
        point.rk4_step(x, c, Forcing(), 0.0, 0.01)
    with pytest.raises(ModelError, match="different point models"):
        point.rhs(x.vector(), c, Forcing(), 0.0)
    with pytest.raises(ModelError, match="different point models"):
        point.constitutive_from_potential(c, x)


def test_thermoelastic_functions_reject_a_ferroelectric_law():
    c = law(point.FE_COORDS)
    with pytest.raises(ModelError, match="13 base coordinates"):
        te.potential_coefficients(c)
    with pytest.raises(ModelError, match="13 base coordinates"):
        te.constitutive_from_potential(c, fe_state())
