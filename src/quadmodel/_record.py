"""Frozen records, as @dataclass(frozen=True) makes them, without its imports."""


class Record:
    """Base of a frozen record of the names its subclass annotates
    (_fields), with the values the subclass body gives them as defaults
    (_field_defaults). The subclass's __init__ and as_tuple are compiled
    once, when it is defined; __init__ ends in __post_init__ if there is
    one, which stores a normalized field as vars(self)[name] = value."""

    def __init_subclass__(cls):
        if "__annotations__" not in cls.__dict__:
            return  # a subclass of a record keeps its fields
        names = tuple(cls.__annotations__)
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
        stores = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        values = "".join(f"self.{n}, " for n in names)
        namespace = {"_defaults": defaults, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):{stores}{post}\n"
             f"def as_tuple(self):\n    return ({values})", namespace)
        cls.__init__, cls.as_tuple = namespace["__init__"], namespace["as_tuple"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._fields, cls._field_defaults, cls.__match_args__ = names, defaults, names

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.as_tuple() == other.as_tuple() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self.as_tuple()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
