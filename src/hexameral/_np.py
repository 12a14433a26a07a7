"""numpy, imported on the first attribute read: a command that builds no array never loads it."""


def __getattr__(name: str):
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy
    value = globals()[name] = getattr(numpy, name)
    return value
