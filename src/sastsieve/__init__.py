"""sastsieve: LLM-backed triage for static-analysis security findings.

A scanner produces candidate findings; a contextual LLM reviewer decides
per finding whether to retain or suppress it, with a conservative fail-open
policy on every failure mode; retained findings are scored against
benchmark ground truth.
"""

__version__ = "0.1.0"
