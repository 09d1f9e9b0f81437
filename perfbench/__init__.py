"""The repository's k-means benchmark; see README.md and run.py."""
