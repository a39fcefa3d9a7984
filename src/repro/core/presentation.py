"""Kept for callers of the removed post-trace view pass: both engines
record the user's view (:class:`repro.tracing.tracer.ActivationView`)."""


def present_tree(trace, transformed) -> None:
    """A no-op: the tree already holds the user's view."""
