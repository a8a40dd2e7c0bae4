"""The repo's wall-clock benchmark (see README.md in this directory)."""
