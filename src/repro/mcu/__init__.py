"""Microcontroller substrate: MSP430 model, firmware image, SPI timing."""
