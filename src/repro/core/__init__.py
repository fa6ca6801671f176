"""The PicoCube core: node composition, power trains, audits, profiles."""
