"""DSL verifiers. Every command loads this module, because `problems` binds
dsl_verifier; the language itself is quasiq.harness.dsl_language, which loads
with the first DSL text and whose names this module forwards."""


def dsl_verifier(text: str, n: int, m: int, name: str | None = None):
    """Compile an expression into a verifier over n input and m branch bits."""
    from quasiq.harness import dsl_language
    return dsl_language.dsl_verifier(text, n, m, name)


def __getattr__(name: str):
    if name.startswith("__"):  # the import system probes __path__: load nothing for it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from quasiq.harness import dsl_language
    return getattr(dsl_language, name)
