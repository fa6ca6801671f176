"""Energy-storage substrate: NiMH cell, capacitors, thin-film, chargers."""
