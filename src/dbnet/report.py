"""The report document that both pipelines write and ``verify`` reads."""

from dataclasses import fields

SCHEMA_VERSION = 2
# the status of an LP solve and of an exact oracle
OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"


def _plain(value):
    """``value`` as JSON data: dict keys become sorted strings and tuples
    become lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class RunReport:
    """Base of the run report dataclasses.  The document holds the schema
    version, ``PROBLEM`` and every field that takes part in comparison, so
    the rounding tables kept for further samples stay out."""

    PROBLEM = ""

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "problem": self.PROBLEM,
                **{f.name: _plain(getattr(self, f.name))
                   for f in fields(self) if f.compare}}
