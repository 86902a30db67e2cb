"""Host-side benchmark of the TrEnv simulator (see README.md)."""
