"""The verify suites and the criteria (1-7) each runs: apart from ``verify``,
so the command line offers their names without importing the suites."""

SUITE_CRITERIA = {"all": (1, 2, 3, 4, 5, 6, 7), "closed-forms": (1,), "ke": (2, 3),
                  "mabuchi": (4,), "coupled": (5,), "mh": (6,), "properties": (7,)}
