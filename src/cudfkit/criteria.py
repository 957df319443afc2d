"""The solver's cost criteria and limits, apart from the solver itself,
so that the CLI can declare its options and report a missing size
property without loading the search."""

CRITERIA = ("installed-size", "download-size", "prefer-latest", "min-new", "min-removed")

# criterion -> the package property that prices it
SIZE_PROPERTIES = {"installed-size": "Installed-Size", "download-size": "Download-Size"}

DEFAULT_BUDGET = 2 ** 20


class MissingSizeProperty(ValueError):
    pass
