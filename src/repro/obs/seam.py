"""The one seam through which a watcher wraps a live instance's method.

A wrapper is an instance attribute the watched code knows nothing of: a
hook bound to the 3-tuple ``(owner, node, inner)``, so ``obj.<name>(*args)``
runs ``hook((owner, node, inner), *args)``.  Binding allocates no function,
cell or attribute dict, which keeps wrapping a whole fabric cheap.  The
hook takes the inner callable's qualname, so a dispatch log or a profiler
labels a wrapped call as the method.  Watchers stack: :func:`unwrap`
splices one owner's links out and rebinds those above them.
"""

from __future__ import annotations

from types import MethodType
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["links", "unwrap", "wrap"]


def wrap(owner: Any, name: str, hook: Callable, objs: Iterable[Any],
         nodes: Optional[Iterable[Any]] = None) -> None:
    """Bind ``hook`` to ``(owner, node, inner)`` as each ``obj.<name>`` of
    ``objs``: ``inner`` is what it is now, ``node`` the matching item of
    ``nodes``, or ``obj``."""
    objs = list(objs)
    for obj, node in zip(objs, objs if nodes is None else nodes):
        inner = getattr(obj, name)
        setattr(obj, name, MethodType(hook, (owner, node, inner)))
    if objs:  # one hook, one label: the instances share a class
        hook.__qualname__ = inner.__qualname__


def links(obj: Any, name: str) -> Iterator[MethodType]:
    """The seam's wrappers on ``obj.<name>``, outermost first."""
    link = vars(obj).get(name)
    while type(link) is MethodType and type(link.__self__) is tuple:
        yield link
        link = link.__self__[2]


def unwrap(owner: Any, name: str, objs: Iterable[Any]) -> None:
    """Take ``owner``'s link out of each ``obj.<name>``; a chain without one,
    or with a wrapper from outside this seam above it, is left as it is."""
    for obj in objs:
        above = []
        for link in links(obj, name):
            if link.__self__[0] is owner:
                break
            above.append(link)
        else:
            continue
        inner = link.__self__[2]
        delattr(obj, name)
        if inner != getattr(obj, name):  # not the bare method
            setattr(obj, name, inner)
        for link in reversed(above):  # rebound on what is left below
            wrap(link.__self__[0], name, link.__func__, [obj], [link.__self__[1]])
