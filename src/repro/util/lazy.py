"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` declares its public names once, as a table from
home module to names, and hands the table to :func:`lazy_exports`::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".circuit": ("Circuit", "Gate"),
        ".cinstance": (("from_tid", "pc_from_tid"),),
    })

Importing the package then loads none of its modules: the first access
to a name imports that name's home module and caches the value on the
package, so later accesses are plain attribute reads. A pair
``(name, alias)`` exports the home module's ``name`` as ``alias``.
"""

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple]):
    """``(__all__, __getattr__, __dir__)`` for the package named ``package``.

    ``table`` maps a home module, absolute or relative to ``package``, to
    the names it exports. ``__all__`` lists every exported name, sorted.
    A name that also names a submodule must be bound eagerly in the
    package, since importing the submodule would otherwise rebind it.
    """
    homes = {}
    for module, names in table.items():
        for entry in names:
            name, alias = entry if isinstance(entry, tuple) else (entry, entry)
            homes[alias] = (module, name)

    def __getattr__(name: str):
        try:
            module, attribute = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | homes.keys())

    return sorted(homes), __getattr__, __dir__
