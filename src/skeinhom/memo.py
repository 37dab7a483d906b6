"""The process tables of the package, registered in one place.

What skeinhom keeps for the life of the process (plans, hom doubles, bar
plans, layouts, interned entries and their work tables) is a function
cached by cache() or a dict or list made by table(); _forget() empties them
all, so that a test can return the process to cold.  planar._DERIVED is no
such table: it interns tangles and does no work, and emptying it while
tangles are alive would break the rule that equal derived tangles alive at
once are one object.
"""

from functools import lru_cache

_CACHES = []  # every cache(fn), in order of definition
_TABLES = []  # every table(factory), in order of definition


def cache(fn):
    """fn cached for the life of the process, registered: the lru_cache
    wrapper itself, so a call goes through no further layer."""
    wrapper = lru_cache(maxsize=None)(fn)
    _CACHES.append(wrapper)
    return wrapper


def table(factory):
    """A new empty factory(), a dict or a list, registered."""
    made = factory()
    _TABLES.append(made)
    return made


def _forget():
    for wrapper in _CACHES:
        wrapper.cache_clear()
    for made in _TABLES:
        made.clear()
