"""Tests for the exception hierarchy and top-level package surface."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        exception_types = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        assert len(exception_types) > 15
        for exc_type in exception_types:
            assert issubclass(exc_type, errors.ReproError), exc_type

    def test_specific_parentage(self):
        assert issubclass(errors.PathError, errors.TopologyError)
        assert issubclass(errors.TableFullError, errors.SwitchError)
        assert issubclass(errors.ChannelClosedError, errors.ChannelError)
        assert issubclass(errors.VerificationBudgetError, errors.VerificationError)
        assert issubclass(errors.UnknownDatapathError, errors.ControllerError)

    def test_rest_errors_carry_status(self):
        assert errors.BadRequestError("x").status == 400
        assert errors.NotFoundError("x").status == 404
        assert errors.RestError("x").status == 500

    def test_one_catch_to_rule_them_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.ScheduleError("broken")


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_api_importable(self):
        from repro import (  # noqa: F401
            Path,
            Topology,
            UpdateProblem,
            UpdateSchedule,
            peacock_schedule,
            verify_schedule,
            wayup_schedule,
        )

    def test_subpackage_all_exports_resolve(self):
        import repro.channel
        import repro.controller
        import repro.core
        import repro.dataplane
        import repro.metrics
        import repro.netlab
        import repro.openflow
        import repro.rest
        import repro.sim
        import repro.switch
        import repro.topology

        for module in (
            repro.channel, repro.controller, repro.core, repro.dataplane,
            repro.metrics, repro.netlab, repro.openflow, repro.rest,
            repro.sim, repro.switch, repro.topology,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
