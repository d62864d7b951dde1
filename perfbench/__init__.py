"""The nspd benchmark; see README.md."""
