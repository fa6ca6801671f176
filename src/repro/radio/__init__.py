"""Radio substrate: FBAR, OOK transmitter, antenna, link, receivers."""
