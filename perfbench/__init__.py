"""End-to-end benchmark of the GUST reproduction (see README.md)."""
