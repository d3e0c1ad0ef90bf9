"""The path of the value of the wrong JSON type that a reader stopped at.

The command line imports this module only when a reader raises TypeError,
so a well-formed input pays nothing for it at start-up.
"""

from __future__ import annotations

from contextlib import suppress


class _Array(list):
    def __getitem__(self, k):
        item = list.__getitem__(self, k)
        self.last[0] = f"{self.path}[{k}]"
        return item

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class _Object(dict):
    def __getitem__(self, k):
        item = dict.__getitem__(self, k)
        self.last[0] = f"{self.path}.{k}".lstrip(".")
        return item

    def get(self, k, default=None):
        return self[k] if k in self else default


def _watched(value, path: str, last: list):
    """value with its JSON arrays and objects replaced by ones that store
    in last[0] the path of each item read from them."""
    if isinstance(value, list):
        value = _Array(_watched(v, f"{path}[{k}]", last) for k, v in enumerate(value))
    elif isinstance(value, dict):
        value = _Object((k, _watched(v, f"{path}.{k}".lstrip("."), last))
                        for k, v in value.items())
    else:
        return value
    value.path, value.last = path, last
    return value


def bad_value_path(from_json, blob: dict) -> str:
    """The path, like strata[0].cohomology[1].types, of the last value that
    from_json(blob) reads before it raises TypeError: from_json runs again
    on a copy whose arrays and objects record each read, and stops at the
    same error right after reading the value of the wrong type."""
    last = ["the top level"]
    with suppress(TypeError):
        from_json(_watched(blob, "", last))
    return last[0]
