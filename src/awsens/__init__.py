"""Adapted-Wasserstein model-risk toolkit on finite scenario trees.

``import awsens`` loads no submodule, so that ``python -m awsens.cli``
starts by loading only what its command runs.  The first public name read
from the package loads the whole library at once (PEP 562), in the order
of the imports in ``_api``, and copies its public names here.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    # private names, ``_api`` included, never load the library; ``__all__``
    # is how ``from awsens import *`` asks for the public names
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _api

    public = {k: v for k, v in vars(_api).items() if not k.startswith("_")}
    globals().update(public, __all__=list(public))
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
